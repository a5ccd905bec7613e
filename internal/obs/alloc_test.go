//go:build !obsoff

package obs

import "testing"

// The package's core contract: once handles exist, emitting is
// allocation-free. Registration (NewHub, Sink, RunObs) may allocate;
// Emit/Count/Inc/Set/Observe/Batch/StateWords must not.
func TestEmitPathsDoNotAllocate(t *testing.T) {
	h := NewHub(1024)
	s := h.Sink(AlgoKK)
	ro := h.RunObs(AlgoKK)
	c := h.Registry().Counter("alloc_probe_total", "probe")
	g := h.Registry().Gauge("alloc_probe", "probe")
	hist := h.Registry().Histogram("alloc_probe_ns", "probe")

	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, n)
		}
	}
	check("Counter.Inc", func() { c.Inc() })
	check("Counter.Add", func() { c.Add(3) })
	check("Gauge.Set", func() { g.Set(7) })
	check("Histogram.Observe", func() { hist.Observe(12345) })
	check("Sink.Emit", func() { s.Emit(KindSetSelected, 1, 2, 3, 4) })
	check("Sink.Emit(wrap)", func() { s.Emit(KindCertWrite, 9, 9, 9, 9) }) // ring is full by now
	check("Sink.Count", func() { s.Count(KindSampleDrop, 10) })
	check("RunObs.Batch", func() { ro.Batch(4096, 1000) })
	check("RunObs.StateWords", func() { ro.StateWords(0, 10, 20) })
	check("RunObs.Covered", func() { ro.Covered(5) })
	check("RunObs.RunDone", func() { ro.RunDone(1000, 500) })

	// The serving layer's steady-state paths: per-batch session-slot
	// updates and the frame latency histograms must all be allocation-free
	// once the session is bound.
	so := h.Serve()
	slot := so.AcquireSession("alloc-probe", "kk", NewTraceID(), false, 0)
	if slot == nil {
		t.Fatal("AcquireSession returned nil with obs enabled")
	}
	check("SessionSlot.Batch", func() { slot.Batch(4096) })
	check("SessionSlot.Checkpoint", func() { slot.Checkpoint(1 << 16) })
	check("ServeObs.Batch", func() { so.Batch(4096) })
	check("ServeObs.HelloLatency", func() { so.HelloLatency(1500) })
	check("ServeObs.AckLatency", func() { so.AckLatency(1500) })
	check("ServeObs.ResultLatency", func() { so.ResultLatency(1500) })

	var ns *Sink
	var nro *RunObs
	var nslot *SessionSlot
	var nso *ServeObs
	check("nil Sink.Emit", func() { ns.Emit(KindPatch, 0, 0, 0, 0) })
	check("nil RunObs.Batch", func() { nro.Batch(1, 1) })
	check("nil SessionSlot.Batch", func() { nslot.Batch(1) })
	check("nil ServeObs.HelloLatency", func() { nso.HelloLatency(1) })
	check("nil ServeObs.Event", func() { nso.Event(SessionEvent{}) })
}
