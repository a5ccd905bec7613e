package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingCap is the decision-ring capacity used by NewHub callers that
// have no reason to pick another size (CLIs expose a flag to override it).
const DefaultRingCap = 16384

// Hub owns one observability surface: a metric registry, the shared decision
// ring, and the per-algorithm Sink/RunObs caches. Constructors reach the
// process-global hub through SinkFor/RunObsFor; tests build private hubs and
// attach sinks explicitly.
type Hub struct {
	reg   *Registry
	ring  *Ring
	start time.Time

	// notReady is the inverted readiness flag served by /readyz, so the
	// zero value means "ready" and every existing NewHub caller starts
	// ready. SetReady(false) flips it during drain — the probe the shard
	// router watches. Readiness is operational state, not telemetry: it is
	// NOT gated by obsoff.
	notReady atomic.Bool

	mu       sync.Mutex
	sinks    [numAlgos]*Sink
	runObs   [numAlgos]*RunObs
	serve    *ServeObs
	router   *RouterObs
	sessions *SessionTable
}

// NewHub returns a hub with a decision ring of the given capacity
// (ringCap < 1 uses DefaultRingCap).
func NewHub(ringCap int) *Hub {
	if ringCap < 1 {
		ringCap = DefaultRingCap
	}
	return &Hub{
		reg:   NewRegistry(),
		ring:  NewRing(ringCap),
		start: time.Now(),
	}
}

// SetReady flips the hub's readiness, served by /readyz. Nil-safe.
func (h *Hub) SetReady(ready bool) {
	if h == nil {
		return
	}
	h.notReady.Store(!ready)
}

// Ready reports the hub's readiness (a nil hub is not ready).
func (h *Hub) Ready() bool {
	if h == nil {
		return false
	}
	return !h.notReady.Load()
}

// Sessions returns the hub's per-session telemetry table, creating it at
// DefaultSessionCap on first use.
func (h *Hub) Sessions() *SessionTable {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sessions == nil {
		h.sessions = NewSessionTable(DefaultSessionCap)
	}
	return h.sessions
}

// Registry exposes the hub's metric registry for callers that register
// series beyond the built-in Sink/RunObs set.
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Ring exposes the hub's decision ring (for trace export).
func (h *Hub) Ring() *Ring {
	if h == nil {
		return nil
	}
	return h.ring
}

// Sink returns the hub's shared sink for the given algorithm, creating it on
// first use. Sinks are cached per AlgoID so the metric cardinality stays
// fixed no matter how many algorithm instances are constructed.
func (h *Hub) Sink(algo AlgoID) *Sink {
	if h == nil || algo == AlgoUnknown || algo >= numAlgos {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sinks[algo] == nil {
		h.sinks[algo] = newSink(algo, h.reg, h.ring)
	}
	return h.sinks[algo]
}

// RunObs returns the hub's shared run-level handle for the given algorithm,
// creating it on first use.
func (h *Hub) RunObs(algo AlgoID) *RunObs {
	if h == nil || algo == AlgoUnknown || algo >= numAlgos {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.runObs[algo] == nil {
		h.runObs[algo] = newRunObs(algo, h.reg)
	}
	return h.runObs[algo]
}

// Serve returns the hub's serving-layer handle, creating it on first use.
// Like sinks it is a singleton per hub: every session feeds the same
// series.
func (h *Hub) Serve() *ServeObs {
	if h == nil {
		return nil
	}
	sessions := h.Sessions()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.serve == nil {
		h.serve = NewServeObs(h.reg, sessions)
	}
	return h.serve
}

// ServeObsFor returns the global hub's serving handle, or nil when no hub
// is installed.
func ServeObsFor() *ServeObs {
	return Global().Serve()
}

// Router returns the hub's cluster-router handle, creating it on first
// use.
func (h *Hub) Router() *RouterObs {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.router == nil {
		h.router = NewRouterObs(h.reg)
	}
	return h.router
}

// RouterObsFor returns the global hub's router handle, or nil when no hub
// is installed.
func RouterObsFor() *RouterObs {
	return Global().Router()
}

// Snapshot captures the full observability surface.
func (h *Hub) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{TakenAt: time.Now()}
	}
	return Snapshot{
		TakenAt:       time.Now(),
		UptimeSeconds: time.Since(h.start).Seconds(),
		Metrics:       h.reg.Snapshot(),
		Trace: TraceInfo{
			Capacity: h.ring.Capacity(),
			Recorded: h.ring.Recorded(),
			Dropped:  h.ring.Dropped(),
		},
	}
}

// global is the process-wide hub consulted by algorithm constructors.
var global atomic.Pointer[Hub]

// SetGlobal installs h as the process-global hub (nil uninstalls). Under the
// obsoff build tag this is a no-op.
func SetGlobal(h *Hub) {
	if !Enabled {
		return
	}
	global.Store(h)
}

// Global returns the process-global hub, or nil when none is installed.
func Global() *Hub {
	if !Enabled {
		return nil
	}
	return global.Load()
}

// SinkFor returns the global hub's sink for algo, or nil when no hub is
// installed. Algorithm constructors call this so instrumentation follows a
// single CLI-level opt-in.
func SinkFor(algo AlgoID) *Sink {
	return Global().Sink(algo)
}

// RunObsFor returns the global hub's run-level handle for algo, or nil when
// no hub is installed.
func RunObsFor(algo AlgoID) *RunObs {
	return Global().RunObs(algo)
}

// Identified is implemented by algorithms that know their AlgoID; the stream
// driver uses it to label run metrics without import cycles.
type Identified interface {
	ObsAlgo() AlgoID
}

// AlgoOf returns the AlgoID of v if it implements Identified, else
// AlgoUnknown.
func AlgoOf(v any) AlgoID {
	if id, ok := v.(Identified); ok {
		return id.ObsAlgo()
	}
	return AlgoUnknown
}
