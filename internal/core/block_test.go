package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// servedStream is servebench's session stream: the planted n=300, m=4000,
// opt=8 instance in random order at seed 1, 72,156 edges. With
// DefaultParams its subepochs are 20, 40, 81 and 162 edges long (B=17,
// K=4, E=8).
func servedStream(t *testing.T) (n, m int, edges []stream.Edge) {
	t.Helper()
	const seed = 1
	n, m = 300, 4000
	inst := workload.Planted(xrand.New(seed), n, m, 8, 0).Inst
	edges = stream.Arrange(inst, stream.Random, xrand.New(seed^0x5eed0f0dde55))
	if len(edges) != 72156 {
		t.Fatalf("served stream has %d edges, want 72,156", len(edges))
	}
	return n, m, edges
}

// blockRun is one run of Algorithm 1 with a private decision-event hub.
type blockRun struct {
	a   *Algorithm
	hub *obs.Hub
}

func newBlockRun(n, m, streamLen int, seed uint64) blockRun {
	r := blockRun{a: New(n, m, streamLen, DefaultParams(n, m), xrand.New(seed)), hub: obs.NewHub(1 << 18)}
	r.a.SetObs(r.hub.Sink(obs.AlgoAlg1))
	return r
}

// feedFrames feeds edges through ProcessBatch in frames of random sizes
// 1–300 drawn from sizes.
func (r blockRun) feedFrames(edges []stream.Edge, sizes *xrand.Rand) {
	for len(edges) > 0 {
		k := min(len(edges), 1+sizes.IntN(300))
		r.a.ProcessBatch(edges[:k])
		edges = edges[k:]
	}
}

func (r blockRun) snapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBlockScheduleMatchesPerEdgeAtEveryCut holds the A-phase block
// schedule to the per-edge path on servebench's shape, where frames of
// random sizes 1–300 cut the 20–162-edge subepochs at every offset: the
// same trace, decision events, cover and certificate, and the same
// SCSTATE1 bytes at a random mid-stream cut. TestBatchedMatchesPerEdge's
// frame sizes (0, 1, 1024) leave most subepoch offsets uncut.
func TestBlockScheduleMatchesPerEdgeAtEveryCut(t *testing.T) {
	n, m, edges := servedStream(t)
	for _, seed := range []uint64{1, 2, 3, 4} {
		sizes := xrand.New(seed * 7919)
		cut := 1 + sizes.IntN(len(edges)-1)

		perEdge := newBlockRun(n, m, len(edges), seed)
		for _, e := range edges[:cut] {
			perEdge.a.Process(e)
		}
		wantSnap := perEdge.snapshot(t)
		for _, e := range edges[cut:] {
			perEdge.a.Process(e)
		}
		want := perEdge.a.Finish()

		framed := newBlockRun(n, m, len(edges), seed)
		framed.feedFrames(edges[:cut], sizes)
		if got := framed.snapshot(t); !bytes.Equal(got, wantSnap) {
			t.Errorf("seed %d: snapshots at edge %d differ (framed %d bytes, per edge %d)", seed, cut, len(got), len(wantSnap))
		}
		framed.feedFrames(edges[cut:], sizes)
		got := framed.a.Finish()

		if !slices.Equal(got.Sets, want.Sets) || !slices.Equal(got.Certificate, want.Certificate) {
			t.Errorf("seed %d: framed cover or certificate differs from per edge", seed)
		}
		if !reflect.DeepEqual(framed.a.Trace(), perEdge.a.Trace()) {
			t.Errorf("seed %d: traces differ:\nframed:   %+v\nper edge: %+v", seed, framed.a.Trace(), perEdge.a.Trace())
		}
		if a, b := framed.hub.Ring().Recorded(), perEdge.hub.Ring().Recorded(); a != b {
			t.Errorf("seed %d: %d decision events framed, %d per edge", seed, a, b)
		}
		if !reflect.DeepEqual(framed.hub.Ring().Events(), perEdge.hub.Ring().Events()) {
			t.Errorf("seed %d: decision events differ", seed)
		}
		if tr := framed.a.Trace(); tr.APhaseEdges == 0 || tr.RemainderEdges == 0 {
			t.Fatalf("seed %d: the stream did not cross the A-phase (trace %+v)", seed, tr)
		}
	}
}

// TestBatchTestMatchesModulo checks the block schedule's division-free
// batch test against batchOf's % for every set id below m, every batch
// and every B in 1..64, and at the top of the int32 range.
func TestBatchTestMatchesModulo(t *testing.T) {
	const m = 4000
	for B := 1; B <= 64; B++ {
		r := DefaultParams(B*B, m).resolve(B*B, m, 100*m)
		if r.B != B {
			t.Fatalf("n=%d resolves to B=%d, want %d", B*B, r.B, B)
		}
		a := &Algorithm{r: r}
		ids := []setcover.SetID{1<<31 - 1, 1<<31 - 2, 1<<31 - 1 - setcover.SetID(B)}
		for s := setcover.SetID(0); s < m; s++ {
			ids = append(ids, s)
		}
		for b := 0; b < B; b++ {
			test := r.batchTest(b)
			for _, s := range ids {
				if got, want := test.has(s), a.batchOf(s) == b; got != want {
					t.Fatalf("B=%d batch %d set %d: division-free test %v, %% gives %v", B, b, s, got, want)
				}
			}
		}
	}
}

// TestResolvedStringMatchesSprintf holds the fmt-free schedule string, the
// snapshot shape fingerprint, to the Sprintf it replaced, byte for byte.
func TestResolvedStringMatchesSprintf(t *testing.T) {
	for _, tc := range []struct {
		n, m, N int
		p       Params
	}{
		{300, 4000, 72156, DefaultParams(300, 4000)},
		{100, 1000, 5000, DefaultParams(100, 1000)},
		{900, 18000, 500000, DefaultParams(900, 18000)},
		{1, 1, 0, DefaultParams(1, 1)},
		{2, 3, 7, Params{}},
		{400, 8000, 100000, FaithfulParams(400, 8000)},
		{1 << 20, 1<<31 - 1, 1 << 40, DefaultParams(1<<20, 1<<31-1)},
		{50, 60, 70, Params{C: 1e-9, K: 9, Epochs: 2}},
	} {
		r := tc.p.resolve(tc.n, tc.m, tc.N)
		want := fmt.Sprintf("core: n=%d m=%d N=%d B=%d K=%d E=%d epoch0=%d ell=%v p0=%.3g",
			r.n, r.m, r.N, r.B, r.K, r.E, r.epoch0P, r.ell[1:], r.p0)
		if got := r.String(); got != want {
			t.Errorf("n=%d m=%d N=%d: schedule string\n got %q\nwant %q", tc.n, tc.m, tc.N, got, want)
		}
	}
}

// TestReleasedRunFailsLoudly: once Release has handed the dense state back,
// every use of the run panics or fails, and none writes into the tables a
// new run now holds.
func TestReleasedRunFailsLoudly(t *testing.T) {
	n, m, edges := servedStream(t)
	a := New(n, m, len(edges), DefaultParams(n, m), xrand.New(1))
	a.ProcessBatch(edges[:len(edges)/3])
	a.Release()
	a.Release() // a second release is a no-op

	b := New(n, m, len(edges), DefaultParams(n, m), xrand.New(1))
	var before bytes.Buffer
	if err := b.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a released run did not panic", what)
			}
		}()
		f()
	}
	mustPanic("ProcessBatch", func() { a.ProcessBatch(edges[:1]) })
	mustPanic("Process", func() { a.Process(edges[0]) })
	mustPanic("Finish", func() { a.Finish() })
	if err := a.Snapshot(&bytes.Buffer{}); err == nil {
		t.Error("Snapshot of a released run succeeded")
	}
	if err := a.Restore(bytes.NewReader(before.Bytes())); err == nil {
		t.Error("Restore into a released run succeeded")
	}
	var after bytes.Buffer
	if err := b.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("using a released run changed another run's state")
	}
	b.Finish()
}
