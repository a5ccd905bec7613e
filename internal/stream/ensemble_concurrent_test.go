package stream

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/snap"
)

// saltedHashAlg gives each ensemble copy a distinct deterministic output, so
// tie-breaking and per-copy integrity are observable.
func saltedHashAlg(n int, salt uint64) *hashAlg {
	a := newHashAlg(n)
	a.hash = salt
	return a
}

// TestEnsembleParallelMatchesSequential: the same copies driven through 1
// worker (the sequential path) and through many must produce the identical
// winning cover, BestIndex and per-copy state — workers only move work to
// other goroutines, they don't reorder or split a copy's edge sequence.
func TestEnsembleParallelMatchesSequential(t *testing.T) {
	edges := ckptEdges(5000)
	run := func(workers int) (*setcover.Cover, int, []uint64) {
		copies := make([]Algorithm, 6)
		for i := range copies {
			copies[i] = saltedHashAlg(4, uint64(i*i+1))
		}
		e := NewEnsemble(copies...)
		e.SetParallelism(workers)
		res := RunEdges(e, edges)
		hashes := make([]uint64, len(copies))
		for i, c := range copies {
			hashes[i] = c.(*hashAlg).hash
		}
		return res.Cover, e.BestIndex, hashes
	}

	refCover, refBest, refHashes := run(1)
	for _, workers := range []int{2, 3, 6, 16} {
		cover, best, hashes := run(workers)
		if !refCover.Equal(cover) {
			t.Fatalf("workers=%d: cover differs from sequential", workers)
		}
		if best != refBest {
			t.Fatalf("workers=%d: BestIndex %d, sequential picked %d", workers, best, refBest)
		}
		for i := range hashes {
			if hashes[i] != refHashes[i] {
				t.Fatalf("workers=%d: copy %d saw a different edge sequence (hash %#x vs %#x)",
					workers, i, hashes[i], refHashes[i])
			}
		}
	}
}

// TestEnsembleParallelInterleavesProcessAndBatch: mixing per-edge Process
// calls with batches (as the checkpointing driver does around boundaries)
// must reach every copy in order.
func TestEnsembleParallelInterleavesProcessAndBatch(t *testing.T) {
	edges := ckptEdges(1000)
	copies := []Algorithm{saltedHashAlg(4, 1), saltedHashAlg(4, 2), saltedHashAlg(4, 3)}
	e := NewEnsemble(copies...)
	e.SetParallelism(3)
	for i := 0; i < len(edges); {
		if i%7 == 0 {
			e.Process(edges[i])
			i++
			continue
		}
		hi := i + 113
		if hi > len(edges) {
			hi = len(edges)
		}
		e.ProcessBatch(edges[i:hi])
		i = hi
	}
	e.Finish()

	want := saltedHashAlg(4, 1)
	for _, ed := range edges {
		want.Process(ed)
	}
	if got := copies[0].(*hashAlg); got.hash != want.hash || got.seen != want.seen {
		t.Fatalf("interleaved drive diverged: hash %#x seen %d, want %#x %d",
			got.hash, got.seen, want.hash, want.seen)
	}
}

// batchPrefAlg records the largest batch it was handed and advertises a
// preferred batch size.
type batchPrefAlg struct {
	pref     int
	maxBatch int
	edges    int
}

func (a *batchPrefAlg) Process(Edge) { a.edges++ }
func (a *batchPrefAlg) ProcessBatch(edges []Edge) {
	if len(edges) > a.maxBatch {
		a.maxBatch = len(edges)
	}
	a.edges += len(edges)
}
func (a *batchPrefAlg) BatchSize() int { return a.pref }
func (a *batchPrefAlg) Finish() *setcover.Cover {
	return setcover.NewCover([]setcover.SetID{0}, make([]setcover.SetID, 1))
}

// TestEnsembleBatchSizeIsMinOfCopies: the ensemble forwards the smallest
// positive preference among its copies, so no copy ever sees a batch larger
// than it asked for.
func TestEnsembleBatchSizeIsMinOfCopies(t *testing.T) {
	a := &batchPrefAlg{pref: 512}
	b := &batchPrefAlg{pref: 96}
	c := &batchPrefAlg{pref: 0} // no preference
	e := NewEnsemble(a, b, c)
	if got := e.BatchSize(); got != 96 {
		t.Fatalf("BatchSize=%d, want 96", got)
	}
	if got := NewEnsemble(c).BatchSize(); got != 0 {
		t.Fatalf("no-preference ensemble BatchSize=%d, want 0", got)
	}

	edges := ckptEdges(3000)
	RunEdges(e, edges)
	for i, alg := range []*batchPrefAlg{a, b, c} {
		if alg.edges != len(edges) {
			t.Fatalf("copy %d processed %d edges, want %d", i, alg.edges, len(edges))
		}
		if alg.maxBatch > 96 {
			t.Fatalf("copy %d saw a %d-edge batch, preference floor is 96", i, alg.maxBatch)
		}
	}
}

// TestDriverHonorsBatchSizerOnFastPath: the uninstrumented drive must clip
// batches to the algorithm's preference too, not just the observed path.
func TestDriverHonorsBatchSizerOnFastPath(t *testing.T) {
	a := &batchPrefAlg{pref: 64}
	edges := ckptEdges(1000)
	res := RunObserved(a, NewSlice(edges), nil) // ro == nil → fast path
	if res.Edges != len(edges) || a.edges != len(edges) {
		t.Fatalf("processed %d/%d edges", a.edges, res.Edges)
	}
	if a.maxBatch > 64 {
		t.Fatalf("fast path dispatched a %d-edge batch, preference is 64", a.maxBatch)
	}
}

// TestEnsembleSnapshotRestore: an ensemble snapshot nests every copy's
// snapshot; restoring into a same-shape ensemble reproduces each copy.
func TestEnsembleSnapshotRestore(t *testing.T) {
	edges := ckptEdges(2000)
	mk := func() (*Ensemble, []*hashAlg) {
		hs := []*hashAlg{saltedHashAlg(4, 11), saltedHashAlg(4, 22), saltedHashAlg(4, 33)}
		return NewEnsemble(hs[0], hs[1], hs[2]), hs
	}
	e1, h1 := mk()
	e1.SetParallelism(3)
	cut := 1200
	e1.ProcessBatch(edges[:cut])
	var buf bytes.Buffer
	if err := e1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	e2, h2 := mk()
	for _, h := range h2 {
		h.hash = 0 // must be overwritten by Restore
	}
	if err := e2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	e2.ProcessBatch(edges[cut:])
	got := e2.Finish()

	eRef, href := mk()
	eRef.ProcessBatch(edges)
	want := eRef.Finish()
	if !want.Equal(got) || e2.BestIndex != eRef.BestIndex {
		t.Fatal("restored ensemble diverged from uninterrupted run")
	}
	for i := range href {
		if h2[i].hash != href[i].hash {
			t.Fatalf("copy %d state diverged after restore", i)
		}
	}
	_ = h1
}

func TestEnsembleRestoreRejectsCopyCountMismatch(t *testing.T) {
	e1 := NewEnsemble(saltedHashAlg(4, 1), saltedHashAlg(4, 2))
	var buf bytes.Buffer
	if err := e1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := NewEnsemble(saltedHashAlg(4, 1))
	if err := e2.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

func TestEnsembleSnapshotRequiresSnapshottableCopies(t *testing.T) {
	e := NewEnsemble(&constAlg{n: 1, sets: []setcover.SetID{0}})
	if err := e.Snapshot(io.Discard); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("want ErrNotSnapshottable, got %v", err)
	}
}

// TestEnsembleSharedSessionRingStress mirrors the serve session's ingest
// architecture around a single shared parallel Ensemble: a bounded ring of
// reusable batch buffers, several producer goroutines claiming stream
// batches and copying them into ring slots, and one dispatcher (the session
// worker's role) applying the slots to the ensemble in exact stream order.
// Under -race this exercises every cross-goroutine handoff edge — producers
// reusing buffers the ensemble's own workers just drained — while the
// in-order dispatch keeps the run deterministic: every copy's final state
// must be bit-identical to a sequential single-goroutine reference.
func TestEnsembleSharedSessionRingStress(t *testing.T) {
	const (
		producers = 8
		copies    = 6
		batchLen  = 113 // deliberately off any power-of-two boundary
		total     = 20000
	)
	edges := ckptEdges(total)
	numBatches := (total + batchLen - 1) / batchLen

	mk := func() (*Ensemble, []*hashAlg) {
		hs := make([]*hashAlg, copies)
		algs := make([]Algorithm, copies)
		for i := range hs {
			hs[i] = saltedHashAlg(4, uint64(3*i+7))
			algs[i] = hs[i]
		}
		e := NewEnsemble(algs...)
		e.SetParallelism(copies)
		return e, hs
	}

	refCover, refHashes := func() (*setcover.Cover, []uint64) {
		ref := make([]*hashAlg, copies)
		for i := range ref {
			ref[i] = saltedHashAlg(4, uint64(3*i+7))
			for _, ed := range edges {
				ref[i].Process(ed)
			}
		}
		e, hs := mk()
		res := RunEdges(e, edges)
		out := make([]uint64, copies)
		for i := range hs {
			if hs[i].hash != ref[i].hash {
				t.Fatalf("reference ensemble copy %d diverged from direct drive", i)
			}
			out[i] = hs[i].hash
		}
		return res.Cover, out
	}()

	e, hs := mk()
	// The ring: free circulates buffer indices back to producers; slots[i]
	// receives batch i's filled buffer, so the dispatcher can consume in
	// stream order no matter which producer got there first.
	const depth = 4
	bufs := make([][]Edge, depth)
	free := make(chan int, depth)
	for i := range bufs {
		bufs[i] = make([]Edge, batchLen)
		free <- i
	}
	type filled struct {
		idx int
		n   int
	}
	slots := make([]chan filled, numBatches)
	for i := range slots {
		slots[i] = make(chan filled, 1)
	}

	var next int64 = -1
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Take a buffer before claiming a batch: claiming first can
				// leave the batch the dispatcher waits for without a buffer,
				// every buffer held by a later batch — a deadlock.
				idx := <-free
				b := int(atomic.AddInt64(&next, 1))
				if b >= numBatches {
					free <- idx
					return
				}
				lo, hi := b*batchLen, (b+1)*batchLen
				if hi > total {
					hi = total
				}
				n := copy(bufs[idx], edges[lo:hi])
				slots[b] <- filled{idx: idx, n: n}
			}
		}()
	}

	for b := 0; b < numBatches; b++ {
		s := <-slots[b]
		e.ProcessBatch(bufs[s.idx][:s.n])
		// ProcessBatch has copied the batch into its workers' private
		// buffers before returning, so the slot can recirculate.
		free <- s.idx
	}
	wg.Wait()
	cover := e.Finish()

	if !refCover.Equal(cover) {
		t.Fatal("ring-fed shared ensemble produced a different cover than the sequential reference")
	}
	for i := range hs {
		if hs[i].hash != refHashes[i] {
			t.Fatalf("copy %d saw a different edge sequence through the ring (hash %#x, want %#x)",
				i, hs[i].hash, refHashes[i])
		}
	}
}

// TestEnsembleSessionRingSteadyStateAllocs drives the same ring handoff in
// steady state and requires it to allocate nothing: the ring buffers, the
// ensemble's worker buffers and the hash copies are all reused, so after
// warm-up the only possible allocations would be leaks in the dispatch
// path. Sequential dispatch (parallelism 1) must be exactly zero; the
// parallel path is covered by the end-to-end budget in ensemble_perf_test.go
// (channel parks may allocate sudogs, which are noise, not leaks).
func TestEnsembleSessionRingSteadyStateAllocs(t *testing.T) {
	const copies, batchLen = 4, 256
	algs := make([]Algorithm, copies)
	for i := range algs {
		algs[i] = saltedHashAlg(4, uint64(i+1))
	}
	e := NewEnsemble(algs...)
	e.SetParallelism(1)

	batch := ckptEdges(batchLen)
	buf := make([]Edge, batchLen)
	cycle := func() {
		n := copy(buf, batch)
		e.ProcessBatch(buf[:n])
	}
	for i := 0; i < 16; i++ {
		cycle() // warm-up: first dispatches size any internal buffers
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state ring dispatch allocates %.1f times per batch, want 0", allocs)
	}
	e.Finish()
}

// TestEnsembleCheckpointResumeEndToEnd: the full kill-and-resume flow with a
// parallel ensemble through the public checkpoint API.
func TestEnsembleCheckpointResumeEndToEnd(t *testing.T) {
	edges := ckptEdges(4000)
	mk := func() *Ensemble {
		e := NewEnsemble(saltedHashAlg(4, 5), saltedHashAlg(4, 6), saltedHashAlg(4, 7), saltedHashAlg(4, 8))
		e.SetParallelism(4)
		return e
	}
	want := RunEdges(mk(), edges)

	var last []byte
	p := CheckpointPolicy{Every: 1000, Sink: func(pos int, ck []byte) error {
		last = bytes.Clone(ck)
		return nil
	}}
	if _, err := DrivePartial(mk(), NewSlice(edges), p, 3500); err != nil {
		t.Fatal(err)
	}
	resumed := mk()
	from, err := ReadCheckpoint(bytes.NewReader(last), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if from != 3000 {
		t.Fatalf("resume position %d, want 3000", from)
	}
	got, err := RunCheckpointedFrom(resumed, NewSlice(edges), CheckpointPolicy{}, from)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Cover.Equal(got.Cover) || got.Edges != want.Edges {
		t.Fatal("parallel ensemble kill-and-resume diverged")
	}
}
