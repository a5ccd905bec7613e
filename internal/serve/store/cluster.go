package store

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"streamcover/internal/frame"
)

// SCSTOR1 is the cluster checkpoint-store protocol: the CheckpointStore
// verbs over TCP in the shared length-prefixed CRC-32-guarded framing
// (internal/frame), so every shard in a cluster reaches one shared store.
// A connection opens with the magic, then strictly alternates request and
// reply frames:
//
//	request := op uvarint(len(token)) token blob...
//	reply   := repOK body... | repErr code uvarint(len) msg
//
// The blob bytes inside put/get frames are the SCCKPT1 envelope verbatim —
// the store moves opaque bytes, exactly like FileStore and MemStore, which
// is what lets any shard adopt any session's checkpoint: composing the
// store behind the wire changes nothing the lifecycle layer can observe.

// StoreMagic opens every SCSTOR1 connection.
const StoreMagic = "SCSTOR1\n"

// SCSTOR1 request ops and reply types. Op 0x04 (list) is retired.
const (
	opPut     = 0x01 // token, blob -> repOK uvarint(bytes written)
	opGet     = 0x02 // token -> repOK blob
	opDelete  = 0x03 // token -> repOK
	opReserve = 0x05 // token -> repOK bool byte (1 = reserved)

	repOK  = 0x81
	repErr = 0x82
)

// SCSTOR1 error codes, so typed errors survive the wire.
const (
	storeErrGeneric  = 1 // a backing-store failure
	storeErrNotFound = 2 // maps back to ErrNotFound
	storeErrToken    = 3 // invalid token; maps back to errInvalidToken
	storeErrWire     = 4 // undecodable request; maps back to ErrStoreWire
)

// maxStoreFrame bounds one SCSTOR1 frame payload. Checkpoints of
// laptop-scale instances are KiBs; 64 MiB leaves room for very large
// universes while keeping a corrupt length prefix harmless.
const maxStoreFrame = 64 << 20

// storeWindow is the initial read window of an SCSTOR1 connection: one
// laptop-scale checkpoint frame fits without growing it.
const storeWindow = 64 << 10

// ErrStoreWire reports malformed SCSTOR1 traffic: bad magic, bad CRC,
// truncated or oversized frames, unknown ops. It is the shared
// frame.ErrWire, the sentinel SCWIRE1's serve.ErrWire names too.
var ErrStoreWire = frame.ErrWire

// StoreServer exposes a backing CheckpointStore over SCSTOR1 so every
// shard in a cluster shares it. The server is pure plumbing: requests
// apply verbatim to the backing store (whose own atomicity and
// concurrency contract — pinned by TestStoreConformance — carries the
// cluster's torn-blob guarantees), one goroutine per connection.
type StoreServer struct {
	backing CheckpointStore

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewStoreServer wraps backing for network service.
func NewStoreServer(backing CheckpointStore) (*StoreServer, error) {
	if backing == nil {
		return nil, errors.New("store: cluster server needs a backing store")
	}
	return &StoreServer{backing: backing, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds addr (":0" picks a free port, readable from Addr).
func (s *StoreServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *StoreServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Close. It returns nil on clean close.
func (s *StoreServer) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("store: cluster server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs open connections and waits for handlers.
// In-flight requests against the backing store complete first, so a Put
// the client saw acknowledged is durably in the backing store.
func (s *StoreServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now()) // wake blocked readers
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// handle runs one connection's request loop.
func (s *StoreServer) handle(conn net.Conn) {
	defer conn.Close()
	var magic [len(StoreMagic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != StoreMagic {
		return
	}
	f := frame.New(conn, storeWindow, maxStoreFrame)
	for {
		req, err := f.Read()
		if err != nil {
			return // disconnect or corruption: the client redials
		}
		if f.End(s.apply(f.Begin(), req)) != nil {
			return
		}
	}
}

// apply executes one request payload against the backing store, appending
// the reply payload to out. A request that does not decode is answered
// with the decoder's error.
func (s *StoreServer) apply(out, req []byte) []byte {
	c := frame.NewCursor(req)
	op := c.Byte()
	token := c.Str()
	var blob []byte
	if op == opPut {
		blob = c.Rest()
	}
	if err := c.Done(); err != nil {
		return appendStoreErr(out, err)
	}
	switch op {
	case opPut:
		n, err := s.backing.Put(token, blob)
		if err != nil {
			return appendStoreErr(out, err)
		}
		return frame.AppendUvarint(append(out, repOK), uint64(n))
	case opGet:
		blob, err := s.backing.Get(token)
		if err != nil {
			return appendStoreErr(out, err)
		}
		return append(append(out, repOK), blob...)
	case opDelete:
		if err := s.backing.Delete(token); err != nil {
			return appendStoreErr(out, err)
		}
		return append(out, repOK)
	case opReserve:
		won, err := s.backing.Reserve(token)
		if err != nil {
			return appendStoreErr(out, err)
		}
		if won {
			return append(out, repOK, 1)
		}
		return append(out, repOK, 0)
	default:
		return appendStoreErr(out, fmt.Errorf("%w: unknown op 0x%02x", ErrStoreWire, op))
	}
}

// appendStoreErr appends a repErr payload, classifying err into a wire
// code so the typed errors the lifecycle layer matches on survive the hop.
func appendStoreErr(out []byte, err error) []byte {
	code := byte(storeErrGeneric)
	switch {
	case errors.Is(err, ErrNotFound):
		code = storeErrNotFound
	case errors.Is(err, errInvalidToken):
		code = storeErrToken
	case errors.Is(err, ErrStoreWire):
		code = storeErrWire
	}
	return frame.AppendString(append(out, repErr, code), err.Error())
}

// ClusterStore is the CheckpointStore every shard in a cluster shares: a
// client for a StoreServer. Calls are request/reply over pooled
// connections — concurrent callers each grab an idle connection (or dial
// a fresh one), so the lifecycle manager's concurrent detach/resume
// traffic does not serialize. A call that hits a dead pooled connection
// redials once before failing, so a restarted store server is transparent.
//
// Like every CheckpointStore, it moves opaque blobs: Get hands back a
// fresh slice, Put never retains the caller's, and the torn-blob guarantee
// is inherited from the backing store behind the server plus the per-frame
// CRC on the wire.
type ClusterStore struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	idle []*storeConn
}

// storeConn is one pooled SCSTOR1 connection with its frame buffers.
type storeConn struct {
	conn net.Conn
	f    *frame.IO
}

// DefaultStoreTimeout bounds each SCSTOR1 round trip when the caller does
// not choose one.
const DefaultStoreTimeout = 30 * time.Second

// maxIdleStoreConns bounds the pool so a detach burst does not pin its
// peak connection count forever.
const maxIdleStoreConns = 16

// NewClusterStore returns a store client for the SCSTOR1 server at addr.
// timeout bounds each round trip (0 picks DefaultStoreTimeout). No
// connection is made until the first call, so a shard may start before
// its store.
func NewClusterStore(addr string, timeout time.Duration) *ClusterStore {
	if timeout <= 0 {
		timeout = DefaultStoreTimeout
	}
	return &ClusterStore{addr: addr, timeout: timeout}
}

// String names the backend in wide events and banners.
func (s *ClusterStore) String() string { return "cluster" }

// Addr reports the store server address this client targets.
func (s *ClusterStore) Addr() string { return s.addr }

// get returns an idle pooled connection or dials a fresh one, with the
// magic queued ahead of its first request.
func (s *ClusterStore) get() (*storeConn, error) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		c := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	conn, err := net.DialTimeout("tcp", s.addr, s.timeout)
	if err != nil {
		return nil, fmt.Errorf("store: cluster dial %s: %w", s.addr, err)
	}
	c := &storeConn{conn: conn, f: frame.New(conn, storeWindow, maxStoreFrame)}
	c.f.QueueRaw([]byte(StoreMagic))
	return c, nil
}

// put returns a connection to the idle pool after a clean round trip.
func (s *ClusterStore) put(c *storeConn) {
	s.mu.Lock()
	if len(s.idle) < maxIdleStoreConns {
		s.idle = append(s.idle, c)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	c.conn.Close()
}

// Close drops every pooled connection. Calls after Close dial fresh ones.
func (s *ClusterStore) Close() error {
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
	return nil
}

// roundTrip sends one request (op, token, then blob for a put) and returns
// its reply's OK body or the typed error the reply carries, retrying once
// on a fresh connection if a pooled one turned out dead (the server
// restarted, or an idle timeout severed it).
func (s *ClusterStore) roundTrip(op byte, token string, blob []byte) ([]byte, error) {
	if err := checkToken(token); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := s.get()
		if err != nil {
			return nil, err
		}
		reply, err := s.exchange(c, op, token, blob)
		if err == nil {
			// The reply aliases c's read window, which the next call reuses
			// as soon as c is back in the pool: decode a copy.
			body, err := decodeReply(append([]byte(nil), reply...))
			s.put(c)
			return body, err
		}
		c.conn.Close()
		lastErr = err
		// A protocol-level failure (bad CRC, oversized frame) will not
		// heal on a redial; only transport errors are retried.
		if errors.Is(err, ErrStoreWire) {
			break
		}
	}
	return nil, fmt.Errorf("store: cluster %s: %w", s.addr, lastErr)
}

// exchange performs one framed request/reply on c. The reply aliases c's
// read window.
func (s *ClusterStore) exchange(c *storeConn, op byte, token string, blob []byte) ([]byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return nil, err
	}
	b := frame.AppendString(append(c.f.Begin(), op), token)
	if err := c.f.End(append(b, blob...)); err != nil {
		return nil, err
	}
	return c.f.Read()
}

// decodeReply splits a reply payload into its OK body or a typed error.
func decodeReply(payload []byte) ([]byte, error) {
	c := frame.NewCursor(payload)
	switch typ := c.Byte(); typ {
	case repOK:
		return c.Rest(), nil
	case repErr:
		code := c.Byte()
		msg := c.Str()
		if err := c.Done(); err != nil {
			return nil, err
		}
		switch code {
		case storeErrGeneric:
			return nil, fmt.Errorf("store: cluster: %s", msg)
		case storeErrNotFound:
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		case storeErrToken:
			return nil, fmt.Errorf("%w: %s", errInvalidToken, msg)
		case storeErrWire:
			return nil, fmt.Errorf("%w: server rejected request: %s", ErrStoreWire, msg)
		default:
			return nil, fmt.Errorf("%w: unknown error code %d", ErrStoreWire, code)
		}
	default:
		return nil, fmt.Errorf("%w: unknown reply 0x%02x", ErrStoreWire, typ)
	}
}

// Put stores data under token on the shared store and returns the bytes
// written there.
func (s *ClusterStore) Put(token string, data []byte) (int, error) {
	body, err := s.roundTrip(opPut, token, data)
	if err != nil {
		return 0, err
	}
	c := frame.NewCursor(body)
	n := c.U64()
	return int(n), c.Done()
}

// Get returns a copy of token's checkpoint from the shared store, or
// ErrNotFound.
func (s *ClusterStore) Get(token string) ([]byte, error) {
	return s.roundTrip(opGet, token, nil)
}

// Delete removes token's checkpoint from the shared store, or returns
// ErrNotFound.
func (s *ClusterStore) Delete(token string) error {
	body, err := s.roundTrip(opDelete, token, nil)
	if err == nil && len(body) != 0 {
		err = fmt.Errorf("%w: malformed delete reply", ErrStoreWire)
	}
	return err
}

// Reserve atomically claims token on the shared store if no checkpoint
// exists there — the cluster-wide mint guard. Atomicity holds because the
// server applies it on the backing store's own Reserve.
func (s *ClusterStore) Reserve(token string) (bool, error) {
	body, err := s.roundTrip(opReserve, token, nil)
	if err != nil {
		return false, err
	}
	if len(body) != 1 || body[0] > 1 {
		return false, fmt.Errorf("%w: malformed reserve reply", ErrStoreWire)
	}
	return body[0] == 1, nil
}
