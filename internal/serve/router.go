package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/serve/ring"
)

// Router is the cluster's front door: it accepts SCWIRE1 connections,
// reads the magic and the opening hello/resume frame, places the session
// on a shard via the consistent-hash ring keyed by its resume token,
// replays what it read to the shard, and splices the connection — the
// shard speaks the rest of the protocol with the client directly, byte for
// byte.
//
// Placement is locality, not correctness: every shard reaches the same
// shared checkpoint store, so when the ring's first choice is dead the
// router fails over to the next owner in ring order and the chosen shard
// adopts the session's checkpoint. A dead shard is remembered for a
// cooldown so a burst of reconnects does not pay a dial timeout each; it
// is re-probed after the cooldown, so a restarted shard rejoins without
// operator action.
//
// Empty-token hellos (the server mints the token) carry nothing to hash,
// and the shared store makes every shard equally able to host them, so
// they round-robin across live shards.
type Router struct {
	cfg  RouterConfig
	robs *obs.RouterObs

	mu     sync.Mutex
	ring   *ring.Ring
	downAt map[string]time.Time // shard -> when its last dial failed
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	rr uint64 // round-robin cursor for empty-token hellos
	wg sync.WaitGroup
}

// RouterConfig shapes one Router.
type RouterConfig struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string
	// Shards are the scserve addresses forming the ring.
	Shards []string
	// Replicas is the ring's virtual-node count per shard (0 picks
	// ring.DefaultReplicas).
	Replicas int
	// DialTimeout bounds each backend dial (0 picks 5s).
	DialTimeout time.Duration
	// DownCooldown is how long a shard that failed a dial is skipped
	// before being re-probed (0 picks 2s).
	DownCooldown time.Duration
	// Obs instruments placements; nil disables instrumentation.
	Obs *obs.RouterObs
	// Log receives connection-level diagnostics; nil discards them.
	Log *log.Logger
}

// NewRouter builds a router over the given shard set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("serve: router needs at least one shard")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 2 * time.Second
	}
	r := ring.New(cfg.Replicas, cfg.Shards...)
	if r.Len() != len(cfg.Shards) {
		return nil, fmt.Errorf("serve: router shard list has duplicates: %v", cfg.Shards)
	}
	return &Router{
		cfg:    cfg,
		robs:   cfg.Obs,
		ring:   r,
		downAt: make(map[string]time.Time),
		conns:  make(map[net.Conn]struct{}),
	}, nil
}

// Ring exposes the placement ring (tests inspect placement directly).
func (r *Router) Ring() *ring.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// ShardFor reports where the ring places token — the shard a connection
// for it is routed to when every shard is live. Chaos harnesses use it to
// aim kills at the shard that owns a session.
func (r *Router) ShardFor(token string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.ring.Lookup(token)
	return m
}

// Listen binds the configured address.
func (r *Router) Listen() error {
	ln, err := net.Listen("tcp", r.cfg.Addr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (r *Router) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Serve accepts and places connections until Shutdown. It returns nil on
// graceful shutdown.
func (r *Router) Serve() error {
	r.mu.Lock()
	if r.ln == nil {
		r.mu.Unlock()
		if err := r.Listen(); err != nil {
			return err
		}
		r.mu.Lock()
	}
	ln := r.ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !r.track(conn) {
			conn.Close()
			return nil
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.untrack(conn)
			r.handle(conn)
		}()
	}
}

// Shutdown closes the listener and severs every splice, waiting (bounded
// by ctx) for handlers to finish. The shards behind the router detach the
// severed sessions with checkpoints — the router holds no session state.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	if r.ln != nil {
		r.ln.Close()
	}
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Router) track(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *Router) untrack(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		r.cfg.Log.Printf(format, args...)
	}
}

// candidates returns the shard dial order for token: ring order from the
// token's position for named tokens, round-robin over the membership for
// empty ones (a mint hello has nothing to hash, and any shard can host
// it).
func (r *Router) candidates(token string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if token != "" {
		return r.ring.Owners(token, 0)
	}
	members := r.ring.Members()
	if len(members) == 0 {
		return nil
	}
	start := int(atomic.AddUint64(&r.rr, 1)-1) % len(members)
	out := make([]string, 0, len(members))
	for i := 0; i < len(members); i++ {
		out = append(out, members[(start+i)%len(members)])
	}
	return out
}

// skipDown reports whether shard is inside its down cooldown.
func (r *Router) skipDown(shard string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, down := r.downAt[shard]
	return down && now.Sub(at) < r.cfg.DownCooldown
}

// markDown records a failed dial; markUp clears it after a success.
func (r *Router) markDown(shard string) {
	r.mu.Lock()
	r.downAt[shard] = time.Now()
	r.mu.Unlock()
}

func (r *Router) markUp(shard string) {
	r.mu.Lock()
	delete(r.downAt, shard)
	r.mu.Unlock()
}

// readOpening reads the magic and the opening frame from conn through f
// and returns the bytes the shard must receive before the splice — the
// magic, the opening frame verbatim and whatever the read window took past
// it, all of which belong to the shard — plus the session token parsed
// from the hello/resume.
func readOpening(conn net.Conn, f *frame.IO) (opening []byte, token string, err error) {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return nil, "", fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, "", fmt.Errorf("%w: bad magic %q", ErrWire, magic[:])
	}
	payload, err := f.Read()
	if err != nil {
		return nil, "", fmt.Errorf("reading opening frame: %w", err)
	}
	if _, token, _, _, err = parseOpening(payload); err != nil {
		return nil, "", err
	}
	return append([]byte(Magic), f.Replay()...), token, nil
}

// handle places one client connection and splices it to its shard.
func (r *Router) handle(conn net.Conn) {
	defer conn.Close()
	f := frame.New(conn, clientReadWindow, maxFramePayload)
	conn.SetReadDeadline(time.Now().Add(r.cfg.DialTimeout))
	opening, token, err := readOpening(conn, f)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		r.logf("router: %s: %v", conn.RemoteAddr(), err)
		if errors.Is(err, ErrWire) {
			writeError(f, codeBadFrame, err.Error())
		}
		return
	}

	backend, failedOver, err := r.dialShard(token, opening)
	if err != nil {
		r.logf("router: %s: token %q: %v", conn.RemoteAddr(), token, err)
		r.robs.Reject()
		writeError(f, codeShutdown, "router: no live shard: "+err.Error())
		return
	}
	defer backend.Close()
	if !r.track(backend) { // shutdown raced the dial
		return
	}
	defer r.untrack(backend)
	r.robs.Placement(failedOver)
	defer r.robs.SpliceDone()

	// Splice: bytes flow verbatim in both directions until either side
	// closes. Half-close propagates (a client Close reaches the shard as
	// EOF, triggering its detach-with-checkpoint path) and the session
	// result flows back before the shard closes its side.
	var sw sync.WaitGroup
	sw.Add(2)
	go func() {
		defer sw.Done()
		proxyCopy(backend, conn)
	}()
	go func() {
		defer sw.Done()
		proxyCopy(conn, backend)
	}()
	sw.Wait()
}

// dialShard walks token's candidate shards in ring order, skipping shards
// inside their down cooldown, and returns a connected backend with the
// opening bytes already replayed to it.
func (r *Router) dialShard(token string, opening []byte) (net.Conn, bool, error) {
	now := time.Now()
	failedOver := false
	var lastErr error
	for _, shard := range r.candidates(token) {
		if r.skipDown(shard, now) {
			failedOver = true
			continue
		}
		backend, err := net.DialTimeout("tcp", shard, r.cfg.DialTimeout)
		if err != nil {
			r.logf("router: shard %s unreachable: %v", shard, err)
			r.markDown(shard)
			failedOver = true
			lastErr = err
			continue
		}
		r.markUp(shard)
		backend.SetWriteDeadline(now.Add(r.cfg.DialTimeout))
		if _, err := backend.Write(opening); err != nil {
			backend.Close()
			r.markDown(shard)
			failedOver = true
			lastErr = err
			continue
		}
		backend.SetWriteDeadline(time.Time{})
		return backend, failedOver, nil
	}
	if lastErr == nil {
		lastErr = errors.New("all shards in cooldown")
	}
	return nil, failedOver, lastErr
}

// proxyCopy streams src into dst, then half-closes dst's write side so
// EOF propagates without tearing down the opposite direction.
func proxyCopy(dst, src net.Conn) {
	io.Copy(dst, src)
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		dst.Close()
	}
}
