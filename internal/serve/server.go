package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/serve/store"
	"streamcover/internal/snap"
)

// ServerConfig shapes one Server.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7600"; ":0" picks a
	// free port, readable from Addr() after Listen).
	Addr string
	// Store persists detach checkpoints. Tests share a MemStore across
	// server restarts; scserve builds it from its -store flag.
	Store store.CheckpointStore
	// Dir is a convenience: when Store is nil and Dir is set, the server
	// opens a FileStore on it — the classic `<token>.ckpt` directory.
	Dir string
	// IdleTimeout bounds how long a connection may sit between frames
	// before the server detaches it with a checkpoint; <= 0 means no limit.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; <= 0 means no limit.
	WriteTimeout time.Duration
	// Obs instruments the serving layer; nil disables instrumentation.
	Obs *obs.ServeObs
	// Log receives connection-level diagnostics; nil discards them.
	Log *log.Logger
}

// Server accepts SCWIRE1 connections and feeds each session's edges
// through the registered streaming algorithms. One goroutine per
// connection reads frames; one per session drains the ring — see the
// package documentation for the full lifecycle. The server is pure
// transport: session state lives in the lifecycle manager, checkpoints in
// its store.
type Server struct {
	cfg ServerConfig
	mgr *Manager
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server (and its session manager) from cfg, resolving
// the checkpoint store from cfg.Store, falling back to a FileStore on
// cfg.Dir.
func NewServer(cfg ServerConfig) (*Server, error) {
	st := cfg.Store
	if st == nil {
		if cfg.Dir == "" {
			return nil, errors.New("serve: server needs a checkpoint store (Store or Dir)")
		}
		fs, err := store.NewFileStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		st = fs
	}
	mgr, err := lifecycle.NewManager(st, cfg.Obs)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, mgr: mgr, conns: make(map[net.Conn]struct{})}, nil
}

// Manager exposes the session manager (tests and tooling inspect it).
func (s *Server) Manager() *Manager { return s.mgr }

// Listen binds the configured address. It is separate from Serve so
// callers can learn the bound address (":0" listeners) before accepting.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on graceful shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: new sessions are rejected, the listener
// closes, and every open connection is woken (its pending read fails) so
// its handler detaches the session with a checkpoint. It waits for all
// handlers — bounded by ctx — so callers know every session is either
// finished or durably checkpointed when it returns. On ctx expiry it
// returns ctx.Err(); handlers already mid-detach still complete their
// checkpoint Put in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mgr.Drain()
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now()) // wake blocked readers
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// readDeadline arms the idle timeout before the opening magic read; inside
// the frame loop the frame.IO's ArmRead hook re-arms it coarsely.
func (s *Server) readDeadline(conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}

// armHooks wires the connection's deadline management into f. The idle
// deadline is re-armed coarsely — once per quarter of the timeout (at most
// once per second) rather than per frame — so the saturated ingest path
// stops paying a timer update per frame; the worst case stretches an idle
// detach by a quarter of the configured timeout. The write deadline is
// armed per flush, which is already coalesced.
func (s *Server) armHooks(f *frame.IO, conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		armEvery := s.cfg.IdleTimeout / 4
		if armEvery > time.Second {
			armEvery = time.Second
		}
		var lastArm time.Time
		f.ArmRead = func() {
			if now := time.Now(); now.Sub(lastArm) >= armEvery {
				lastArm = now
				conn.SetReadDeadline(now.Add(s.cfg.IdleTimeout))
			}
		}
	}
	if s.cfg.WriteTimeout > 0 {
		f.ArmWrite = func() {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
	}
}

// errCode classifies a lifecycle- or wire-layer error into a wire error
// code.
func errCode(err error) byte {
	switch {
	case errors.Is(err, snap.ErrMismatch):
		return codeMismatch
	case errors.Is(err, lifecycle.ErrDraining):
		return codeShutdown
	case errors.Is(err, lifecycle.ErrToken):
		return codeBadFrame
	case errors.Is(err, ErrWire):
		return codeBadFrame
	default:
		return codeGeneric
	}
}

// handle runs one connection: magic, hello/resume, then the frame loop.
// On any read failure — disconnect, idle timeout, shutdown wake-up — the
// attached session is detached with a checkpoint so the client can
// resume.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.readDeadline(conn)
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		s.logf("serve: %s: reading magic: %v", conn.RemoteAddr(), err)
		return
	}
	// The frame.IO is pooled across connections (read window and sealed
	// write buffers survive) and coalesces: replies queue until the next
	// frame read flushes them — or this deferred flush does, on every
	// return path before the connection closes.
	f := serverFrames.Get(conn)
	defer func() {
		f.Flush()
		serverFrames.Put(f)
	}()
	s.armHooks(f, conn)
	if string(magic[:]) != Magic {
		writeError(f, codeBadFrame, fmt.Sprintf("bad magic %q", magic[:]))
		return
	}

	// The first frame must open a session: hello (fresh) or resume. The
	// session's Config is kept here — the shape validates every edge frame
	// the transport decodes.
	payload, err := f.Read()
	if err != nil {
		s.logf("serve: %s: reading opening frame: %v", conn.RemoteAddr(), err)
		return
	}
	helloT0 := time.Now()
	var sess *Session
	var pos int
	resume, token, trace, cfg, err := parseOpening(payload)
	if err == nil {
		if resume {
			sess, pos, err = s.mgr.Resume(token, trace, cfg)
		} else {
			sess, err = s.mgr.Open(token, trace, cfg)
		}
	}
	if err != nil {
		s.logf("serve: %s: open: %v", conn.RemoteAddr(), err)
		writeError(f, errCode(err), err.Error())
		return
	}
	if err := writeHelloAck(f, sess.Token(), pos, sess.Trace()); err != nil {
		s.logf("serve: %s: hello ack: %v", conn.RemoteAddr(), err)
		s.detach(sess, "hello-ack-write: "+err.Error())
		return
	}
	s.cfg.Obs.HelloLatency(time.Since(helloT0).Nanoseconds())

	for {
		payload, err := f.Read()
		if err != nil {
			// Disconnect, idle timeout or shutdown: checkpoint and park.
			s.logf("serve: session %s: connection lost (%v), detaching with checkpoint", sess.Token(), err)
			s.detach(sess, "disconnect")
			return
		}
		switch payload[0] {
		case frameEdges:
			// Lease a ring buffer from the session, decode the frame
			// straight into it (no copies, no allocations), and commit.
			// Reserve blocking on a full ring is the backpressure path.
			buf := sess.Reserve()
			n, err := parseEdgesInto(payload[1:], buf, cfg.N, cfg.M)
			if err != nil {
				sess.Release()
				s.logf("serve: session %s: %v", sess.Token(), err)
				writeError(f, errCode(err), err.Error())
				s.detach(sess, "bad-edges: "+err.Error())
				return
			}
			sess.Enqueue(n)
		case frameFlush:
			t0 := time.Now()
			p, err := sess.Flush()
			if err != nil {
				s.fail(f, sess, err)
				return
			}
			if err := writePosAck(f, p); err != nil {
				s.detach(sess, "pos-ack-write: "+err.Error())
				return
			}
			s.cfg.Obs.AckLatency(time.Since(t0).Nanoseconds())
		case frameDetach:
			t0 := time.Now()
			p, err := s.mgr.Detach(sess, "detach-frame")
			if err != nil {
				s.logf("serve: session %s: detach: %v", sess.Token(), err)
				writeError(f, errCode(err), err.Error())
				return
			}
			if writePosAck(f, p) == nil {
				s.cfg.Obs.AckLatency(time.Since(t0).Nanoseconds())
			}
			return
		case frameFinish:
			t0 := time.Now()
			res, err := s.mgr.Finish(sess)
			if err != nil {
				s.logf("serve: session %s: finish: %v", sess.Token(), err)
				writeError(f, errCode(err), err.Error())
				return
			}
			if err := writeResult(f, res); err != nil {
				s.logf("serve: session %s: result write: %v", sess.Token(), err)
			} else {
				s.cfg.Obs.ResultLatency(time.Since(t0).Nanoseconds())
			}
			return
		default:
			err := fmt.Errorf("%w: unexpected frame 0x%02x", ErrWire, payload[0])
			s.fail(f, sess, err)
			return
		}
	}
}

// fail reports err to the client and detaches the session.
func (s *Server) fail(f *frame.IO, sess *Session, err error) {
	s.logf("serve: session %s: %v", sess.Token(), err)
	writeError(f, errCode(err), err.Error())
	s.detach(sess, "protocol-error: "+err.Error())
}

// detach checkpoints and releases sess, logging (not propagating) errors:
// the connection is already gone.
func (s *Server) detach(sess *Session, cause string) {
	if _, err := s.mgr.Detach(sess, cause); err != nil {
		s.logf("serve: session %s: detach checkpoint failed: %v", sess.Token(), err)
	}
}
