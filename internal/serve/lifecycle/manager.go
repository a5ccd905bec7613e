package lifecycle

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve/store"
	"streamcover/internal/stream"
)

// ErrSessionActive reports a hello or resume naming a token that is
// currently attached to another connection.
var ErrSessionActive = errors.New("serve: session already attached")

// ErrUnknownSession reports a resume naming a token with no checkpoint in
// the store.
var ErrUnknownSession = errors.New("serve: unknown session")

// ErrDraining reports an open or resume rejected because the manager is
// draining for shutdown. The transport maps it to a shutdown error frame;
// the client package wraps it into its remote-error family.
var ErrDraining = errors.New("server draining")

// ErrToken reports a client-chosen session token outside the
// filename-safe alphabet (store.ValidToken). The transport maps it to a
// bad-frame error code.
var ErrToken = errors.New("serve: invalid session token")

// lockStripes shards the attached-session table so opens, flushes and
// detaches of independent sessions stop serializing on one mutex. Tokens
// hash to stripes; operations on one token only ever touch its stripe.
// Power of two; sized with headroom over the contention knee measured by
// BenchmarkServeSessionsScaling (DESIGN.md §4j).
const lockStripes = 32

// managerStripe is one shard of the attached-session table, padded out to
// a cache line so stripes don't false-share under concurrent opens.
type managerStripe struct {
	mu     sync.Mutex
	active map[string]*Session
	_      [48]byte
}

// Manager owns the server's multi-tenant session state: which tokens are
// attached, and the checkpoint store that carries detached sessions across
// disconnects (and across server restarts — resume is driven purely by the
// stored SCCKPT1 blob, not by in-memory state). The manager serializes
// checkpoints itself and moves only opaque bytes through the store, so the
// same Manager runs against a directory, process memory, or the planned
// cluster store.
//
// The attached-token table is striped by token hash: sessions on different
// tokens attach, flush and detach without sharing a lock. Server-chosen
// token minting stays globally consistent — one mint lock serializes the
// counter and its store consultation — but minting is off the per-frame
// path entirely.
type Manager struct {
	store     store.CheckpointStore
	storeName string
	shard     string // set by SetShard before serving starts
	so        *obs.ServeObs

	draining atomic.Bool

	mintMu sync.Mutex // serializes server-chosen token assignment
	nextID uint64     // guarded by mintMu

	// localCkpt remembers every token this process has checkpointed, so a
	// resume can tell a local reattach from a cross-shard adoption (a
	// checkpoint some other process wrote into the shared store).
	ckptMu    sync.Mutex
	localCkpt map[string]struct{}

	stripes [lockStripes]managerStripe
}

// NewManager creates a manager persisting detach checkpoints in st. so may
// be nil to disable instrumentation.
func NewManager(st store.CheckpointStore, so *obs.ServeObs) (*Manager, error) {
	if st == nil {
		return nil, errors.New("serve: manager needs a checkpoint store")
	}
	name := "custom"
	if named, ok := st.(fmt.Stringer); ok {
		name = named.String()
	}
	m := &Manager{store: st, storeName: name, so: so, localCkpt: make(map[string]struct{})}
	for i := range m.stripes {
		m.stripes[i].active = make(map[string]*Session)
	}
	return m, nil
}

// SetShard names this serving process on every wide event it emits, so a
// fleet's merged event streams stay attributable. Call before the manager
// starts serving connections; the field is read without synchronization
// afterwards.
func (m *Manager) SetShard(shard string) { m.shard = shard }

// Shard reports the shard name ("" for a standalone server).
func (m *Manager) Shard() string { return m.shard }

// Store exposes the manager's checkpoint store (tests and tooling inspect
// it).
func (m *Manager) Store() store.CheckpointStore { return m.store }

// StoreName reports the store backend's name ("dir", "mem", or "custom"),
// as stamped on detach/resume wide events.
func (m *Manager) StoreName() string { return m.storeName }

// stripeFor hashes a token (FNV-1a) to its lock stripe.
func (m *Manager) stripeFor(token string) *managerStripe {
	h := uint32(2166136261)
	for i := 0; i < len(token); i++ {
		h = (h ^ uint32(token[i])) * 16777619
	}
	return &m.stripes[h&(lockStripes-1)]
}

// claim reserves token in its stripe, failing if it is already attached.
// The session pointer may be nil while the session is still being built;
// adopt fills it in.
func (m *Manager) claim(token string, s *Session) error {
	st := m.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.active[token]; ok {
		return fmt.Errorf("%w: %q", ErrSessionActive, token)
	}
	st.active[token] = s
	return nil
}

// adopt records the built session under its already-claimed token.
func (m *Manager) adopt(token string, s *Session) {
	st := m.stripeFor(token)
	st.mu.Lock()
	st.active[token] = s
	st.mu.Unlock()
}

// unclaim forgets a claimed token (failed open/resume, or release).
func (m *Manager) unclaim(token string) {
	st := m.stripeFor(token)
	st.mu.Lock()
	delete(st.active, token)
	st.mu.Unlock()
}

// attached reports whether token is currently claimed.
func (m *Manager) attached(token string) bool {
	st := m.stripeFor(token)
	st.mu.Lock()
	_, ok := st.active[token]
	st.mu.Unlock()
	return ok
}

// mintToken assigns the next server-chosen token and reserves it in the
// store, skipping tokens that are attached here. Reserve loses on every
// token that already holds a blob — a detached checkpoint left by a
// previous process (the in-memory counter resets on restart, and handing
// such a token out would let Finish delete state a client still intends to
// resume) or another shard's reservation over a shared store — so walking
// the counter with Reserve alone skips every stored token. The caller owns
// the reservation: it checkpoints over it, or Deletes it on failure.
func (m *Manager) mintToken() (string, error) {
	m.mintMu.Lock()
	defer m.mintMu.Unlock()
	for {
		m.nextID++
		tok := fmt.Sprintf("s%06d", m.nextID)
		if m.attached(tok) {
			continue
		}
		won, err := m.store.Reserve(tok)
		if err != nil {
			return "", fmt.Errorf("serve: minting token: %w", err)
		}
		if won {
			return tok, nil
		}
	}
}

// Open starts a fresh session for cfg. An empty token asks the manager to
// assign one; a client-chosen token must be filename-safe and not
// currently attached. A zero trace asks the manager to mint the session's
// identity; a non-zero trace — minted by the client — is adopted as-is.
//
// The token is claimed in its stripe before the algorithm is built, so
// concurrent opens of independent tokens proceed in parallel and a
// duplicate open fails fast; the claim is dropped if the build fails.
func (m *Manager) Open(token string, trace obs.TraceID, cfg Config) (*Session, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	minted := token == ""
	if minted {
		for {
			t, err := m.mintToken()
			if err != nil {
				return nil, err
			}
			if err := m.claim(t, nil); err == nil {
				token = t
				break
			}
			// An explicit hello raced us to the minted token between mint
			// and claim; drop the store-side reservation and mint the next.
			m.store.Delete(t)
		}
	} else {
		if !store.ValidToken(token) {
			return nil, fmt.Errorf("%w: %q", ErrToken, token)
		}
		if err := m.claim(token, nil); err != nil {
			return nil, err
		}
	}
	alg, err := Build(cfg)
	if err != nil {
		m.unclaim(token)
		if minted {
			m.store.Delete(token)
		}
		return nil, err
	}
	if trace.IsZero() {
		trace = obs.NewTraceID()
	}
	tslot := m.so.AcquireSession(token, cfg.Algo, trace, false, 0)
	s := newSession(token, trace, cfg, alg, 0, m.so, tslot)
	// A minted token holds a store-side reservation blob; marking the
	// session persisted makes Finish delete it, exactly as it would a real
	// detach checkpoint.
	s.persisted = minted
	m.adopt(token, s)
	m.so.SessionOpened(false)
	if m.so.Eventing() {
		m.so.Event(obs.SessionEvent{
			Event: obs.EventSessionOpen, Token: token, Trace: trace.String(), Algo: cfg.Algo,
			Shard: m.shard,
		})
	}
	return s, nil
}

// Resume reattaches a detached session: it rebuilds the algorithm from cfg
// and restores the token's checkpoint into it, returning the session and
// the stream position the client must resend from. A checkpoint written by
// a different algorithm or instance shape surfaces the snap layer's typed
// mismatch error (snap.ErrMismatch), which the transport maps to a
// mismatch error frame.
// The session's identity comes from the checkpoint when it carries one:
// the trace stamped at the original open wins over whatever the resuming
// client proposes, so one identity follows the session across every
// disconnect. Pre-trace checkpoints fall back to the client's trace, then
// to a fresh mint.
//
// The token is claimed before the store read, so concurrent resumes of the
// same token can't both restore the checkpoint, and resumes of independent
// tokens don't serialize on each other's store I/O.
func (m *Manager) Resume(token string, trace obs.TraceID, cfg Config) (*Session, int, error) {
	if m.draining.Load() {
		return nil, 0, ErrDraining
	}
	if !store.ValidToken(token) {
		return nil, 0, fmt.Errorf("%w: %q", ErrToken, token)
	}
	if err := m.claim(token, nil); err != nil {
		return nil, 0, err
	}
	alg, err := Build(cfg)
	if err != nil {
		m.unclaim(token)
		return nil, 0, err
	}
	t0 := time.Now()
	blob, err := m.store.Get(token)
	if err != nil {
		m.unclaim(token)
		if errors.Is(err, store.ErrNotFound) {
			return nil, 0, fmt.Errorf("%w: %q has no checkpoint", ErrUnknownSession, token)
		}
		return nil, 0, fmt.Errorf("serve: resume %q: %w", token, err)
	}
	if store.IsMintMarker(blob) {
		// The token is a mint reservation that never checkpointed — its
		// shard died before the first detach. There is no state to restore;
		// unknown-session tells the client to re-hello from position zero.
		m.unclaim(token)
		return nil, 0, fmt.Errorf("%w: %q was minted but never checkpointed", ErrUnknownSession, token)
	}
	m.so.StoreGet(len(blob), time.Since(t0).Nanoseconds())
	pos, ckptTrace, err := stream.ReadCheckpointTraced(bytes.NewReader(blob), alg)
	if err != nil {
		m.unclaim(token)
		return nil, 0, fmt.Errorf("serve: resume %q: %w", token, err)
	}
	adopted := !m.checkpointedHere(token)
	if adopted {
		m.so.Adoption(time.Since(t0).Nanoseconds())
	}
	if !ckptTrace.IsZero() {
		trace = ckptTrace
	} else if trace.IsZero() {
		trace = obs.NewTraceID()
	}
	tslot := m.so.AcquireSession(token, cfg.Algo, trace, true, int64(pos))
	s := newSession(token, trace, cfg, alg, pos, m.so, tslot)
	s.persisted = true
	m.adopt(token, s)
	m.so.SessionOpened(true)
	if m.so.Eventing() {
		m.so.Event(obs.SessionEvent{
			Event: obs.EventSessionResume, Token: token, Trace: trace.String(), Algo: cfg.Algo,
			Edges: int64(pos), Store: m.storeName, Shard: m.shard, Adopted: adopted,
		})
	}
	return s, pos, nil
}

// checkpointedHere reports whether this process ever wrote a checkpoint
// for token — false means a resume of it is a cross-shard adoption.
func (m *Manager) checkpointedHere(token string) bool {
	m.ckptMu.Lock()
	_, ok := m.localCkpt[token]
	m.ckptMu.Unlock()
	return ok
}

// putCheckpoint serializes s's state at pos into a trace-stamped SCCKPT1
// envelope and stores it, returning the authoritative byte size straight
// from the store's Put — no re-stat, and no filesystem assumed.
func (m *Manager) putCheckpoint(s *Session, pos int) (int, error) {
	var buf bytes.Buffer
	if err := stream.WriteCheckpointTraced(&buf, pos, s.trace, s.alg); err != nil {
		return 0, err
	}
	t0 := time.Now()
	n, err := m.store.Put(s.token, buf.Bytes())
	if err != nil {
		return 0, err
	}
	m.so.StorePut(n, time.Since(t0).Nanoseconds())
	s.persisted = true
	m.ckptMu.Lock()
	m.localCkpt[s.token] = struct{}{}
	m.ckptMu.Unlock()
	return n, nil
}

// Detach drains s, persists its checkpoint — stamped with the session's
// trace ID — and releases the token. It serves both the graceful detach
// frame and abrupt disconnects, with cause recording which ("detach-frame",
// "disconnect", an error string); the two paths must behave identically for
// disconnect tolerance to hold.
func (m *Manager) Detach(s *Session, cause string) (int, error) {
	pos, err := s.stop()
	if err != nil {
		m.fail(s, cause, err)
		return 0, err
	}
	n, err := m.putCheckpoint(s, pos)
	if err != nil {
		err = fmt.Errorf("serve: checkpoint %q: %w", s.token, err)
		m.fail(s, cause, err)
		return pos, err
	}
	m.so.Checkpoint(n)
	s.tslot.Checkpoint(int64(n))
	s.tslot.SetState(obs.StateDetached)
	m.release(s.token)
	if m.so.Eventing() {
		m.so.Event(obs.SessionEvent{
			Event: obs.EventSessionDetach, Token: s.token, Trace: s.trace.String(), Algo: s.cfg.Algo,
			Edges: int64(pos), IngestStalls: s.tslot.Stalls(), CheckpointBytes: int64(n), Cause: cause,
			Store: m.storeName, Shard: m.shard,
		})
	}
	s.retire()
	return pos, nil
}

// Finish drains s, finishes the algorithm and retires the session for
// good, removing any detach checkpoint left by an earlier disconnect.
func (m *Manager) Finish(s *Session) (Result, error) {
	res, err := s.finish()
	if err != nil {
		m.fail(s, "finish", err)
		return res, err
	}
	s.tslot.SetState(obs.StateFinished)
	m.release(s.token)
	if s.persisted {
		m.store.Delete(s.token) // best-effort: the file may be gone already
	}
	if m.so.Eventing() {
		m.so.Event(obs.SessionEvent{
			Event: obs.EventSessionFinish, Token: s.token, Trace: s.trace.String(), Algo: s.cfg.Algo,
			Edges: int64(res.Edges), IngestStalls: s.tslot.Stalls(), Shard: m.shard,
		})
	}
	s.retire()
	return res, err
}

// fail retires a session whose drain, checkpoint or finish went wrong. The
// ring is not recycled — a session that failed mid-control may not be
// quiescent.
func (m *Manager) fail(s *Session, cause string, err error) {
	s.tslot.SetState(obs.StateFailed)
	m.release(s.token)
	if m.so.Eventing() {
		m.so.Event(obs.SessionEvent{
			Event: obs.EventSessionFail, Token: s.token, Trace: s.trace.String(), Algo: s.cfg.Algo,
			IngestStalls: s.tslot.Stalls(), Cause: cause + ": " + err.Error(), Shard: m.shard,
		})
	}
}

// release forgets an attached token. The caller has already retired the
// session worker.
func (m *Manager) release(token string) {
	m.unclaim(token)
	m.so.SessionClosed()
}

// Drain rejects all future hellos and resumes (a shutdown error frame on
// the wire). Attached sessions keep running until their connections close;
// the server's shutdown path then detaches each with a checkpoint.
func (m *Manager) Drain() {
	if !m.draining.Swap(true) {
		if m.so.Eventing() {
			m.so.Event(obs.SessionEvent{Event: obs.EventServerDrain, Active: int64(m.Active()), Shard: m.shard})
		}
	}
}

// Active reports the number of attached sessions.
func (m *Manager) Active() int {
	n := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		n += len(st.active)
		st.mu.Unlock()
	}
	return n
}
