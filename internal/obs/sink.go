package obs

// Sink is what an algorithm holds to emit decisions. One Sink is shared by
// every concurrent run of the same AlgoID (counters aggregate; the ring
// interleaves, with Pos disambiguating). A nil *Sink is fully inert, so
// algorithms call these methods unconditionally.
type Sink struct {
	algo AlgoID
	ring *Ring

	// events[k] counts decisions of Kind k; fixed slots registered at Sink
	// construction so the emit path is one atomic add.
	events [numKinds]*Counter
}

// newSink builds the sink for one algorithm: per-kind counters registered up
// front (registration is the only allocation) plus the hub's shared ring.
func newSink(algo AlgoID, reg *Registry, ring *Ring) *Sink {
	s := &Sink{algo: algo, ring: ring}
	lAlgo := Label{Key: "algo", Value: algo.String()}
	for k := Kind(1); k < numKinds; k++ {
		s.events[k] = reg.Counter(
			"streamcover_decision_events_total",
			"Decision events emitted by streaming algorithms, by kind.",
			lAlgo, Label{Key: "kind", Value: k.String()},
		)
	}
	return s
}

// Algo returns the algorithm this sink belongs to (AlgoUnknown for nil).
func (s *Sink) Algo() AlgoID {
	if s == nil {
		return AlgoUnknown
	}
	return s.algo
}

// Emit records one decision: bumps the per-kind counter and appends the
// event to the ring. pos is the stream position (edges processed so far);
// pass -1 when the position is not meaningful at the call site. Only the
// guard inlines, so an algorithm's loop pays a compare, not a call, while
// no hub is installed.
func (s *Sink) Emit(kind Kind, pos, a, b, c int64) {
	if Enabled && s != nil {
		s.emit(kind, pos, a, b, c)
	}
}

func (s *Sink) emit(kind Kind, pos, a, b, c int64) {
	s.events[kind].Inc()
	s.ring.record(Event{Pos: pos, A: a, B: b, C: c, Algo: s.algo, Kind: kind})
}

// Count bumps the per-kind counter by n without ringing an event. Use it for
// high-volume decisions (per-element subsampling coins) where a ring entry
// per decision would flood the trace window.
func (s *Sink) Count(kind Kind, n int64) {
	if !Enabled || s == nil {
		return
	}
	s.events[kind].Add(n)
}

// EventCount returns how many decisions of the given kind this sink has
// recorded (via Emit or Count).
func (s *Sink) EventCount(kind Kind) int64 {
	if s == nil || int(kind) >= len(s.events) {
		return 0
	}
	return s.events[kind].Value()
}

// RunObs is what the stream driver holds to stamp run- and batch-level
// metrics for one algorithm. Like Sink, one RunObs is shared per AlgoID and
// a nil *RunObs is inert.
type RunObs struct {
	algo AlgoID

	edges       *Counter   // streamcover_edges_processed_total
	batches     *Counter   // streamcover_batches_processed_total
	runs        *Counter   // streamcover_runs_total
	edgesPerSec *Gauge     // streamcover_edges_per_second (last completed run)
	covered     *Gauge     // streamcover_covered_elements (last checkpoint)
	batchNs     *Histogram // streamcover_batch_duration_ns
	runNs       *Histogram // streamcover_run_duration_ns

	checkpoints   *Counter   // streamcover_checkpoints_total
	snapshotBytes *Histogram // streamcover_snapshot_bytes
	checkpointNs  *Histogram // streamcover_checkpoint_duration_ns

	// stateWords[meter][stat]: meter 0=state 1=aux, stat 0=current 1=peak.
	stateWords [2][2]*Gauge
}

func newRunObs(algo AlgoID, reg *Registry) *RunObs {
	lAlgo := Label{Key: "algo", Value: algo.String()}
	ro := &RunObs{
		algo: algo,
		edges: reg.Counter("streamcover_edges_processed_total",
			"Edges consumed from the stream.", lAlgo),
		batches: reg.Counter("streamcover_batches_processed_total",
			"Batches dispatched by the stream driver.", lAlgo),
		runs: reg.Counter("streamcover_runs_total",
			"Completed streaming runs.", lAlgo),
		edgesPerSec: reg.Gauge("streamcover_edges_per_second",
			"Throughput of the most recently completed run.", lAlgo),
		covered: reg.Gauge("streamcover_covered_elements",
			"Covered elements at the latest checkpoint.", lAlgo),
		batchNs: reg.Histogram("streamcover_batch_duration_ns",
			"Wall time per dispatched batch, in nanoseconds.", lAlgo),
		runNs: reg.Histogram("streamcover_run_duration_ns",
			"Wall time per completed run, in nanoseconds.", lAlgo),
		checkpoints: reg.Counter("streamcover_checkpoints_total",
			"Checkpoints written during streaming runs.", lAlgo),
		snapshotBytes: reg.Histogram("streamcover_snapshot_bytes",
			"Serialized size per checkpoint, in bytes.", lAlgo),
		checkpointNs: reg.Histogram("streamcover_checkpoint_duration_ns",
			"Wall time per checkpoint (snapshot + write), in nanoseconds.", lAlgo),
	}
	meters := [2]string{"state", "aux"}
	stats := [2]string{"current", "peak"}
	for mi, meter := range meters {
		for si, stat := range stats {
			ro.stateWords[mi][si] = reg.Gauge("streamcover_state_words",
				"Space-meter word balance at the latest checkpoint.",
				lAlgo, Label{Key: "meter", Value: meter}, Label{Key: "stat", Value: stat})
		}
	}
	return ro
}

// Algo returns the algorithm this handle belongs to.
func (ro *RunObs) Algo() AlgoID {
	if ro == nil {
		return AlgoUnknown
	}
	return ro.algo
}

// Batch records one dispatched batch of n edges taking ns nanoseconds.
func (ro *RunObs) Batch(n int, ns int64) {
	if !Enabled || ro == nil {
		return
	}
	ro.edges.Add(int64(n))
	ro.batches.Inc()
	ro.batchNs.Observe(ns)
}

// StateWords stamps a space-meter checkpoint. meter is 0 for the state
// meter, 1 for the aux meter.
func (ro *RunObs) StateWords(meter int, cur, peak int64) {
	if !Enabled || ro == nil || meter < 0 || meter > 1 {
		return
	}
	ro.stateWords[meter][0].Set(cur)
	ro.stateWords[meter][1].Set(peak)
}

// Covered stamps the covered-element count at a checkpoint.
func (ro *RunObs) Covered(n int) {
	if !Enabled || ro == nil {
		return
	}
	ro.covered.Set(int64(n))
}

// Checkpoint records one written checkpoint: serialized size in bytes and
// wall time (snapshot + durable write) in nanoseconds.
func (ro *RunObs) Checkpoint(bytes, ns int64) {
	if !Enabled || ro == nil {
		return
	}
	ro.checkpoints.Inc()
	ro.snapshotBytes.Observe(bytes)
	ro.checkpointNs.Observe(ns)
}

// RunDone records a completed run of edges total edges taking ns
// nanoseconds, updating the throughput gauge.
func (ro *RunObs) RunDone(edges int, ns int64) {
	if !Enabled || ro == nil {
		return
	}
	ro.runs.Inc()
	ro.runNs.Observe(ns)
	if ns > 0 {
		ro.edgesPerSec.Set(int64(float64(edges) * 1e9 / float64(ns)))
	}
}

// EdgesProcessed returns the cumulative edge count (test/inspection helper).
func (ro *RunObs) EdgesProcessed() int64 {
	if ro == nil {
		return 0
	}
	return ro.edges.Value()
}
