package kk

import (
	"math"
	"slices"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

func runOn(t testing.TB, w workload.Workload, order stream.Order, seed uint64) (stream.Result, *Algorithm) {
	t.Helper()
	rng := xrand.New(seed)
	edges := stream.Arrange(w.Inst, order, rng.Split())
	alg := New(w.Inst.UniverseSize(), w.Inst.NumSets(), rng.Split())
	res := stream.RunEdges(alg, edges)
	return res, alg
}

func TestCoverValidOnAllWorkloadsAndOrders(t *testing.T) {
	rng := xrand.New(1)
	for _, w := range workload.Catalog(rng) {
		for _, o := range stream.Orders() {
			res, _ := runOn(t, w, o, 99)
			if err := res.Cover.Verify(w.Inst); err != nil {
				t.Errorf("%s/%v: %v", w.Name, o, err)
			}
		}
	}
}

func TestApproximationWithinSqrtNBound(t *testing.T) {
	// Planted instance: OPT known. KK guarantees Õ(√n); allow constant·√n·log.
	w := workload.Planted(xrand.New(2), 400, 4000, 20, 0)
	opt := w.PlantedOPT
	slack := 4.0
	bound := slack * math.Sqrt(400) * math.Log2(4000) * float64(opt)
	for seed := uint64(0); seed < 3; seed++ {
		for _, o := range stream.Orders() {
			res, _ := runOn(t, w, o, seed)
			if float64(res.Cover.Size()) > bound {
				t.Errorf("%v seed %d: cover %d exceeds Õ(√n)·OPT bound %.0f", o, seed, res.Cover.Size(), bound)
			}
		}
	}
}

func TestSpaceLinearInM(t *testing.T) {
	// The defining property: state space ≈ m words (the degree array),
	// regardless of stream order. Doubling m must double peak state.
	n := 200
	var peaks []int64
	for _, m := range []int{1000, 2000, 4000} {
		w := workload.Planted(xrand.New(3), n, m, 10, 0)
		res, _ := runOn(t, w, stream.Random, 7)
		peaks = append(peaks, res.Space.State)
		if res.Space.State < int64(m) {
			t.Errorf("m=%d: state %d below m (degree array must be charged)", m, res.Space.State)
		}
		if res.Space.State > int64(m)+3*int64(n) {
			t.Errorf("m=%d: state %d far above m words", m, res.Space.State)
		}
	}
	if ratio := float64(peaks[2]) / float64(peaks[0]); ratio < 3.2 || ratio > 4.8 {
		t.Errorf("state should scale ~linearly in m: peaks %v (4x m gave %.2fx)", peaks, ratio)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	w := workload.Planted(xrand.New(4), 100, 500, 10, 0)
	a, _ := runOn(t, w, stream.Random, 5)
	b, _ := runOn(t, w, stream.Random, 5)
	if a.Cover.Size() != b.Cover.Size() {
		t.Fatalf("same seed, different covers: %d vs %d", a.Cover.Size(), b.Cover.Size())
	}
	for i := range a.Cover.Sets {
		if a.Cover.Sets[i] != b.Cover.Sets[i] {
			t.Fatal("same seed, different chosen sets")
		}
	}
}

func TestLevelDecay(t *testing.T) {
	// [19]'s key invariant: the number of level-i sets decays geometrically.
	// Use a dominating-set workload (m = n) with enough density for several
	// levels, and check the aggregate decay from level 1 onward.
	w := workload.DominatingSet(xrand.New(5), 900, 0.2)
	_, alg := runOn(t, w, stream.Random, 11)
	counts := alg.LevelCounts()
	if len(counts) < 3 {
		t.Skipf("only %d levels materialised; decay unobservable", len(counts))
	}
	// Sum of levels ≥ 2 must not exceed level-1 count (geometric decay sums
	// to ≤ the first term); allow 2x slack for randomness.
	tail := 0
	for _, c := range counts[2:] {
		tail += c
	}
	if counts[1] > 0 && tail > 2*counts[1] {
		t.Errorf("no geometric decay: level1=%d, tail=%d (counts %v)", counts[1], tail, counts)
	}
}

func TestLevelCountsPartitionSets(t *testing.T) {
	w := workload.UniformRandom(xrand.New(6), 50, 300, 2, 10)
	_, alg := runOn(t, w, stream.Random, 3)
	total := 0
	for _, c := range alg.LevelCounts() {
		total += c
	}
	if total != w.Inst.NumSets() {
		t.Fatalf("level counts sum to %d, want m=%d", total, w.Inst.NumSets())
	}
}

// TestLevelCountsMatchDegrees holds LevelCounts, which reads the per-level
// tallies, to a histogram of the degree words themselves, at cuts across
// the stream under both schedules, and after Finish to its last value.
func TestLevelCountsMatchDegrees(t *testing.T) {
	w := workload.Planted(xrand.New(11), 300, 4000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(5))
	for _, batched := range []bool{false, true} {
		a := New(300, 4000, xrand.New(1))
		for lo := 0; lo < len(edges); lo += 1024 {
			hi := min(lo+1024, len(edges))
			if batched {
				a.ProcessBatch(edges[lo:hi])
			} else {
				for _, e := range edges[lo:hi] {
					a.Process(e)
				}
			}
			var want []int
			for _, d := range a.deg {
				lvl := int(d >> degLevelShift)
				for len(want) <= lvl {
					want = append(want, 0)
				}
				want[lvl]++
			}
			if got := a.LevelCounts(); !slices.Equal(got, want) {
				t.Fatalf("batched=%v, %d edges: level counts %v, degree words give %v", batched, hi, got, want)
			}
		}
		last := a.LevelCounts()
		a.Finish()
		if got := a.LevelCounts(); !slices.Equal(got, last) || len(got) < 3 {
			t.Fatalf("batched=%v: level counts after Finish %v, before %v", batched, got, last)
		}
	}
}

func TestSingletonUniverse(t *testing.T) {
	inst := setcover.MustNewInstance(1, [][]setcover.Element{{0}})
	alg := New(1, 1, xrand.New(1))
	res := stream.RunEdges(alg, stream.EdgesOf(inst))
	if err := res.Cover.Verify(inst); err != nil {
		t.Fatal(err)
	}
	if res.Cover.Size() != 1 {
		t.Fatalf("size %d", res.Cover.Size())
	}
}

func TestPatchedPlusSampledConsistent(t *testing.T) {
	w := workload.UniformRandom(xrand.New(7), 80, 200, 2, 8)
	res, alg := runOn(t, w, stream.RoundRobin, 13)
	if alg.Patched() < 0 || alg.Patched() > w.Inst.UniverseSize() {
		t.Fatalf("patched=%d", alg.Patched())
	}
	if res.Cover.Size() > alg.SampledSets()+alg.Patched() {
		t.Fatalf("cover %d > sampled %d + patched %d", res.Cover.Size(), alg.SampledSets(), alg.Patched())
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{0, 5}, {5, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.n, tc.m)
				}
			}()
			New(tc.n, tc.m, xrand.New(1))
		}()
	}
}

func TestInclusionProbMonotone(t *testing.T) {
	a := New(100, 1000, xrand.New(1))
	prev := 0.0
	for lvl := 1; lvl < 40; lvl++ {
		p := a.inclusionProb(lvl)
		if p < prev {
			t.Fatalf("inclusion probability not monotone at level %d", lvl)
		}
		prev = p
	}
	if a.inclusionProb(200) < 1 {
		t.Fatal("huge level should clamp to certainty")
	}
}

func BenchmarkKKProcess(b *testing.B) {
	w := workload.Planted(xrand.New(1), 1000, 10000, 20, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg := New(w.Inst.UniverseSize(), w.Inst.NumSets(), xrand.New(uint64(i)))
		stream.RunEdges(alg, edges)
	}
}
