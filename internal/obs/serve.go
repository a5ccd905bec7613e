package obs

import (
	"io"
	"sync/atomic"
)

// ServeObs instruments the network serving layer (internal/serve): session
// lifecycle counts, ingested traffic, and the checkpoint/resume cycle
// behind disconnect tolerance. Like Sink/RunObs it is nil-safe — a nil
// receiver ignores every update — so sessions carry one pointer and the
// hot ingest path pays only an inlined nil check.
type ServeObs struct {
	sessionsActive  *Gauge
	sessionsTotal   *Counter
	resumesTotal    *Counter
	adoptionsTotal  *Counter
	adoptionNs      *Histogram
	batches         *Counter
	edges           *Counter
	checkpoints     *Counter
	checkpointBytes *Histogram
	batchEdges      *Histogram

	// Frame-level latency for the three request/reply pairs of SCWIRE1.
	helloNs  *Histogram
	ackNs    *Histogram
	resultNs *Histogram

	// Checkpoint-store traffic: one put per detach, one get per resume,
	// whatever the backend. Latency histograms catch a slow store (the
	// durable backend fsyncs on the detach path); byte counters size the
	// checkpoint traffic a cluster store would replicate.
	storePutNs    *Histogram
	storeGetNs    *Histogram
	storePutBytes *Counter
	storeGetBytes *Counter

	// sessions is the hub's per-session telemetry table; events is the
	// wide-event lifecycle log (off until SetEventWriter installs one).
	sessions *SessionTable
	events   atomic.Pointer[WideEventLog]
}

// NewServeObs registers the serving series on reg. sessions may be nil
// (per-session telemetry off; the aggregate series still work).
func NewServeObs(reg *Registry, sessions *SessionTable) *ServeObs {
	if reg == nil {
		return nil
	}
	return &ServeObs{
		sessions: sessions,
		sessionsActive: reg.Gauge("streamcover_serve_sessions_active",
			"Sessions currently attached to a connection."),
		sessionsTotal: reg.Counter("streamcover_serve_sessions_total",
			"Sessions ever opened (hello frames accepted)."),
		resumesTotal: reg.Counter("streamcover_serve_resumes_total",
			"Sessions resumed from a checkpoint after a disconnect."),
		adoptionsTotal: reg.Counter("streamcover_serve_adoptions_total",
			"Resumes that adopted a checkpoint written by another shard."),
		adoptionNs: reg.Histogram("streamcover_serve_adoption_ns",
			"Cross-shard adoption latency, nanoseconds (store Get + checkpoint restore)."),
		batches: reg.Counter("streamcover_serve_batches_total",
			"Edge batches ingested over the wire."),
		edges: reg.Counter("streamcover_serve_edges_total",
			"Edges ingested over the wire."),
		checkpoints: reg.Counter("streamcover_serve_checkpoints_total",
			"Detach checkpoints persisted for disconnected sessions."),
		checkpointBytes: reg.Histogram("streamcover_serve_checkpoint_bytes",
			"Size of each persisted detach checkpoint, in bytes."),
		batchEdges: reg.Histogram("streamcover_serve_batch_edges",
			"Edges per ingested wire batch."),
		helloNs: reg.Histogram("streamcover_serve_hello_ns",
			"hello|resume -> helloAck latency, nanoseconds (session open/rebuild cost)."),
		ackNs: reg.Histogram("streamcover_serve_ack_ns",
			"flush|detach -> posAck latency, nanoseconds (queue-drain cost when edges are acked)."),
		resultNs: reg.Histogram("streamcover_serve_result_ns",
			"finish -> result latency, nanoseconds (drain + Finish + result framing)."),
		storePutNs: reg.Histogram("streamcover_serve_store_put_ns",
			"Checkpoint-store Put latency, nanoseconds (one per detach)."),
		storeGetNs: reg.Histogram("streamcover_serve_store_get_ns",
			"Checkpoint-store Get latency, nanoseconds (one per resume)."),
		storePutBytes: reg.Counter("streamcover_serve_store_put_bytes_total",
			"Checkpoint bytes written to the store."),
		storeGetBytes: reg.Counter("streamcover_serve_store_get_bytes_total",
			"Checkpoint bytes read from the store."),
	}
}

// Sessions exposes the per-session telemetry table (nil when disabled).
func (s *ServeObs) Sessions() *SessionTable {
	if s == nil {
		return nil
	}
	return s.sessions
}

// SetEventWriter installs w as the wide-event destination (nil turns the
// log off). Safe to call at any time; emission picks the writer up
// atomically.
func (s *ServeObs) SetEventWriter(w io.Writer) {
	if !Enabled || s == nil {
		return
	}
	s.events.Store(NewWideEventLog(w))
}

// Eventing reports whether Event would do anything at all, so callers can
// skip building the event — and the trace-ID hex rendering inside it — on
// the nil/compiled-out fast path.
func (s *ServeObs) Eventing() bool {
	return Enabled && s != nil
}

// Event emits one session lifecycle wide event (no-op until SetEventWriter
// installs a destination).
func (s *ServeObs) Event(ev SessionEvent) {
	if !Enabled || s == nil {
		return
	}
	s.events.Load().Emit(ev)
}

// AcquireSession binds a session-table slot (nil-safe at every layer; the
// returned handle is nil when per-session telemetry is off).
func (s *ServeObs) AcquireSession(token, algo string, trace TraceID, resumed bool, startEdges int64) *SessionSlot {
	if !Enabled || s == nil {
		return nil
	}
	return s.sessions.Acquire(token, algo, trace, resumed, startEdges)
}

// HelloLatency records one hello|resume -> helloAck round trip.
func (s *ServeObs) HelloLatency(ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.helloNs.Observe(ns)
}

// AckLatency records one flush|detach -> posAck round trip.
func (s *ServeObs) AckLatency(ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.ackNs.Observe(ns)
}

// ResultLatency records one finish -> result round trip.
func (s *ServeObs) ResultLatency(ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.resultNs.Observe(ns)
}

// SessionOpened records a new session (resumed reports whether it was
// restored from a checkpoint rather than started fresh).
func (s *ServeObs) SessionOpened(resumed bool) {
	if !Enabled || s == nil {
		return
	}
	s.sessionsActive.Add(1)
	s.sessionsTotal.Inc()
	if resumed {
		s.resumesTotal.Inc()
	}
}

// SessionClosed records a session leaving the attached state (finish or
// detach).
func (s *ServeObs) SessionClosed() {
	if !Enabled || s == nil {
		return
	}
	s.sessionsActive.Add(-1)
}

// Adoption records one cross-shard checkpoint adoption: a resume restoring
// a checkpoint this process never wrote, ns covering store fetch plus
// restore.
func (s *ServeObs) Adoption(ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.adoptionsTotal.Inc()
	s.adoptionNs.Observe(ns)
}

// Batch records one ingested edge batch.
func (s *ServeObs) Batch(edges int) {
	if !Enabled || s == nil {
		return
	}
	s.batches.Inc()
	s.edges.Add(int64(edges))
	s.batchEdges.Observe(int64(edges))
}

// StorePut records one checkpoint-store Put of the given size and
// duration.
func (s *ServeObs) StorePut(bytes int, ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.storePutNs.Observe(ns)
	s.storePutBytes.Add(int64(bytes))
}

// StoreGet records one checkpoint-store Get of the given size and
// duration.
func (s *ServeObs) StoreGet(bytes int, ns int64) {
	if !Enabled || s == nil {
		return
	}
	s.storeGetNs.Observe(ns)
	s.storeGetBytes.Add(int64(bytes))
}

// Checkpoint records one persisted detach checkpoint.
func (s *ServeObs) Checkpoint(bytes int) {
	if !Enabled || s == nil {
		return
	}
	s.checkpoints.Inc()
	s.checkpointBytes.Observe(int64(bytes))
}
