package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSessionCap is the session-table capacity used when the hub's
// creator has no reason to pick another size. At ~200 bytes per slot the
// default costs ~200 KiB — negligible next to the sessions themselves.
const DefaultSessionCap = 1024

// SessionState is a session's lifecycle position as the telemetry layer
// sees it. States only ever move forward within one occupancy of a slot;
// a resume binds a fresh occupancy (same trace ID) in StateActive.
type SessionState uint32

const (
	// StateIdle marks a free slot; it never appears in snapshots.
	StateIdle SessionState = iota
	// StateActive is an attached session processing edges.
	StateActive
	// StateDetached is a parked session whose checkpoint is durable; it may
	// be adopted by a resume (possibly on another shard).
	StateDetached
	// StateFinished is a completed session (result delivered).
	StateFinished
	// StateFailed is a session retired by a protocol or algorithm error.
	StateFailed
)

var stateNames = [...]string{
	StateIdle:     "idle",
	StateActive:   "active",
	StateDetached: "detached",
	StateFinished: "finished",
	StateFailed:   "failed",
}

func (s SessionState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// sessSlot is one fixed slot of the table. Metadata (token, algo, trace,
// opened time) is written under the table lock at bind time; the per-batch
// counters are plain atomics so the ingest hot path never takes a lock or
// allocates — the same discipline as the decision ring and the fixed-slot
// metrics.
type sessSlot struct {
	gen atomic.Uint64 // occupancy generation; bumped at every bind

	// Bind-time metadata, guarded by SessionTable.mu.
	token    string
	algo     string
	trace    TraceID
	resumed  bool
	openedNs int64

	// Hot counters, atomically updated through SessionSlot handles.
	state     atomic.Uint32
	edges     atomic.Int64
	batches   atomic.Int64
	ckptBytes atomic.Int64
	lastNs    atomic.Int64
}

// SessionTable is the hub's fixed-size per-session telemetry surface:
// Acquire binds a slot at session open/resume (lock + a small handle
// allocation — the session-open path, not the hot path), per-batch updates
// go through the returned SessionSlot handle with three atomic updates and
// zero allocations, and Snapshot renders the live table for /sessions and
// scstat.
//
// Retired sessions (finished, failed, detached) keep their slot — and stay
// visible in snapshots — until capacity pressure reuses it, preferring free
// and retired slots over live ones. When every slot is active the oldest
// active session is evicted from the table (counted in EvictedActive); the
// session itself is unaffected, it merely stops being observable.
type SessionTable struct {
	mu    sync.Mutex
	slots []sessSlot

	evictedActive atomic.Int64
	binds         atomic.Int64
}

// NewSessionTable returns a table with the given slot capacity
// (cap < 1 uses DefaultSessionCap).
func NewSessionTable(cap int) *SessionTable {
	if cap < 1 {
		cap = DefaultSessionCap
	}
	return &SessionTable{slots: make([]sessSlot, cap)}
}

// SessionSlot is the handle a session holds into its table slot. It is
// nil-safe — a nil handle ignores every update — and generation-checked, so
// a handle left over from an evicted occupancy can never corrupt the slot's
// next tenant.
type SessionSlot struct {
	t   *SessionTable
	idx int
	gen uint64
}

// Acquire binds a slot for a session and returns its handle. startEdges
// seeds the edge counter (the checkpoint position, for resumed sessions) so
// a session's edge count is cumulative across its whole identity. A resume
// whose trace ID matches a detached slot rebinds that slot in place, so the
// session appears as one row across its disconnect.
func (t *SessionTable) Acquire(token, algo string, trace TraceID, resumed bool, startEdges int64) *SessionSlot {
	if !Enabled || t == nil {
		return nil
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.pick(trace)
	s := &t.slots[idx]
	gen := s.gen.Add(1)
	s.token, s.algo, s.trace, s.resumed = token, algo, trace, resumed
	s.openedNs = now
	s.state.Store(uint32(StateActive))
	s.edges.Store(startEdges)
	s.batches.Store(0)
	s.ckptBytes.Store(0)
	s.lastNs.Store(now)
	t.binds.Add(1)
	return &SessionSlot{t: t, idx: idx, gen: gen}
}

// pick chooses the slot to bind, under t.mu: a detached slot with the same
// trace (resume continuity), else a free slot, else the oldest retired
// slot, else the oldest active one (evicting it).
func (t *SessionTable) pick(trace TraceID) int {
	freeIdx, retiredIdx, activeIdx := -1, -1, -1
	var retiredNs, activeNs int64
	for i := range t.slots {
		s := &t.slots[i]
		switch SessionState(s.state.Load()) {
		case StateIdle:
			if freeIdx < 0 {
				freeIdx = i
			}
		case StateDetached:
			if !trace.IsZero() && s.trace == trace {
				return i
			}
			if retiredIdx < 0 || s.openedNs < retiredNs {
				retiredIdx, retiredNs = i, s.openedNs
			}
		case StateFinished, StateFailed:
			if retiredIdx < 0 || s.openedNs < retiredNs {
				retiredIdx, retiredNs = i, s.openedNs
			}
		case StateActive:
			if activeIdx < 0 || s.openedNs < activeNs {
				activeIdx, activeNs = i, s.openedNs
			}
		}
	}
	switch {
	case freeIdx >= 0:
		return freeIdx
	case retiredIdx >= 0:
		return retiredIdx
	default:
		t.evictedActive.Add(1)
		return activeIdx
	}
}

// slot resolves the handle against the current occupancy, or nil when the
// slot has been rebound since the handle was issued.
func (h *SessionSlot) slot() *sessSlot {
	if !Enabled || h == nil {
		return nil
	}
	s := &h.t.slots[h.idx]
	if s.gen.Load() != h.gen {
		return nil
	}
	return s
}

// Batch records one ingested edge batch. Two atomic adds and one atomic
// store; no locks, no allocation.
func (h *SessionSlot) Batch(edges int) {
	s := h.slot()
	if s == nil {
		return
	}
	s.edges.Add(int64(edges))
	s.batches.Add(1)
	s.lastNs.Store(time.Now().UnixNano())
}

// Checkpoint records the size of the session's latest durable checkpoint.
func (h *SessionSlot) Checkpoint(bytes int64) {
	s := h.slot()
	if s == nil {
		return
	}
	s.ckptBytes.Store(bytes)
	s.lastNs.Store(time.Now().UnixNano())
}

// SetState moves the session's lifecycle state (detached, finished,
// failed). The slot stays visible in snapshots until reused.
func (h *SessionSlot) SetState(st SessionState) {
	s := h.slot()
	if s == nil {
		return
	}
	s.state.Store(uint32(st))
	s.lastNs.Store(time.Now().UnixNano())
}

// Edges reads the session's cumulative edge count.
func (h *SessionSlot) Edges() int64 {
	s := h.slot()
	if s == nil {
		return 0
	}
	return s.edges.Load()
}

// SessionInfo is one row of the /sessions surface: everything scstat needs
// to render a session without a second request.
type SessionInfo struct {
	Token   string `json:"token"`
	Trace   string `json:"trace"`
	Algo    string `json:"algo"`
	State   string `json:"state"`
	Resumed bool   `json:"resumed,omitempty"`

	Edges           int64 `json:"edges"`
	Batches         int64 `json:"batches"`
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`

	OpenedUnixNs       int64 `json:"opened_unix_ns"`
	LastActivityUnixNs int64 `json:"last_activity_unix_ns"`

	// AgeSeconds and IdleSeconds are derived at snapshot time; EdgesPerSec
	// is the lifetime average rate (pollers derive instantaneous rates by
	// diffing successive snapshots on Edges).
	AgeSeconds  float64 `json:"age_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	EdgesPerSec float64 `json:"edges_per_sec"`
}

// SessionsSnapshot is the full /sessions payload.
type SessionsSnapshot struct {
	TakenAtUnixNs int64 `json:"taken_at_unix_ns"`
	Capacity      int   `json:"capacity"`
	Active        int   `json:"active"`
	// SessionsTotal counts slot binds (opens + resumes) over the process
	// lifetime; EvictedActive counts live sessions pushed out of the table
	// by capacity pressure (the sessions themselves are unaffected).
	SessionsTotal int64         `json:"sessions_total"`
	EvictedActive int64         `json:"evicted_active"`
	Sessions      []SessionInfo `json:"sessions"`
}

// Snapshot renders every occupied slot, newest-opened first. It allocates;
// it is an export-path call, never a hot-path one.
func (t *SessionTable) Snapshot() SessionsSnapshot {
	now := time.Now().UnixNano()
	snap := SessionsSnapshot{TakenAtUnixNs: now}
	if t == nil {
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap.Capacity = len(t.slots)
	snap.SessionsTotal = t.binds.Load()
	snap.EvictedActive = t.evictedActive.Load()
	for i := range t.slots {
		s := &t.slots[i]
		st := SessionState(s.state.Load())
		if st == StateIdle {
			continue
		}
		if st == StateActive {
			snap.Active++
		}
		info := SessionInfo{
			Token:              s.token,
			Trace:              s.trace.String(),
			Algo:               s.algo,
			State:              st.String(),
			Resumed:            s.resumed,
			Edges:              s.edges.Load(),
			Batches:            s.batches.Load(),
			CheckpointBytes:    s.ckptBytes.Load(),
			OpenedUnixNs:       s.openedNs,
			LastActivityUnixNs: s.lastNs.Load(),
		}
		info.AgeSeconds = float64(now-info.OpenedUnixNs) / 1e9
		info.IdleSeconds = float64(now-info.LastActivityUnixNs) / 1e9
		if info.AgeSeconds > 0 {
			info.EdgesPerSec = float64(info.Edges) / info.AgeSeconds
		}
		snap.Sessions = append(snap.Sessions, info)
	}
	sortSessions(snap.Sessions)
	return snap
}

// sortSessions orders rows newest-opened first, ties broken by token so
// snapshots are deterministic for a fixed table state.
func sortSessions(rows []SessionInfo) {
	// Insertion sort: tables are small (≤ capacity) and mostly ordered.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			a, b := &rows[j-1], &rows[j]
			if a.OpenedUnixNs > b.OpenedUnixNs ||
				(a.OpenedUnixNs == b.OpenedUnixNs && a.Token <= b.Token) {
				break
			}
			rows[j-1], rows[j] = rows[j], rows[j-1]
		}
	}
}
