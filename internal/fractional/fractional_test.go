package fractional

import (
	"math"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

func solveOn(t testing.TB, w workload.Workload, opt Options) *Solution {
	t.Helper()
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(7))
	sol, err := Solve(w.Inst.UniverseSize(), w.Inst.NumSets(), stream.NewSlice(edges), opt)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSolveFeasible(t *testing.T) {
	rng := xrand.New(1)
	for _, w := range workload.Catalog(rng) {
		sol := solveOn(t, w, Options{})
		if !sol.Feasible(1e-9) {
			t.Errorf("%s: infeasible fractional solution", w.Name)
		}
		if sol.Value <= 0 {
			t.Errorf("%s: value %v", w.Name, sol.Value)
		}
	}
}

func TestValueUpperBoundsAreSane(t *testing.T) {
	// LP value ≤ integral greedy; our δ=1 solver is integral-greedy-like,
	// so demand Value within (1+ln n)·greedy and ≥ the LP lower bound
	// N_elems/maxSetSize.
	w := workload.Planted(xrand.New(2), 200, 1000, 10, 0)
	sol := solveOn(t, w, Options{})
	g, err := setcover.GreedySize(w.Inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value > float64(g)*(1+math.Log(200)) {
		t.Errorf("value %v far above greedy %d", sol.Value, g)
	}
	maxSize := w.Inst.Stats().MaxSetSize
	if sol.Value < float64(200)/float64(maxSize)-1e-9 {
		t.Errorf("value %v below the n/maxSetSize LP bound", sol.Value)
	}
}

func TestSmallDeltaApproachesLP(t *testing.T) {
	// The classic fractional-beats-integral instance: three elements, three
	// sets of two elements each. OPT integral = 2, OPT fractional = 1.5.
	inst := setcover.MustNewInstance(3, [][]setcover.Element{{0, 1}, {1, 2}, {0, 2}})
	edges := stream.EdgesOf(inst)
	sol, err := Solve(3, 3, stream.NewSlice(edges), Options{Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible(1e-9) {
		t.Fatal("infeasible")
	}
	if sol.Value < 1.5-1e-9 {
		t.Fatalf("value %v below the LP optimum 1.5", sol.Value)
	}
	if sol.Value > 2.2 {
		t.Fatalf("value %v should sit between LP 1.5 and integral 2 (+slack)", sol.Value)
	}
}

func TestPassesScaleWithDelta(t *testing.T) {
	w := workload.Planted(xrand.New(3), 100, 500, 5, 0)
	coarse := solveOn(t, w, Options{Delta: 1})
	fine := solveOn(t, w, Options{Delta: 0.25})
	if fine.Passes <= coarse.Passes {
		t.Errorf("finer δ should need more passes: δ=1 %d, δ=.25 %d", coarse.Passes, fine.Passes)
	}
	// Both must be feasible.
	if !coarse.Feasible(1e-9) || !fine.Feasible(1e-9) {
		t.Fatal("infeasible")
	}
}

func TestSpaceLinearInMPlusN(t *testing.T) {
	w := workload.Planted(xrand.New(4), 100, 2000, 5, 0)
	sol := solveOn(t, w, Options{})
	if sol.Space.State < 2000 {
		t.Errorf("state %d below m (weight accumulators must be charged)", sol.Space.State)
	}
	if sol.Space.State > 2*2000+200 {
		t.Errorf("state %d far above O(m)", sol.Space.State)
	}
}

func TestMaxPassesTruncates(t *testing.T) {
	w := workload.Planted(xrand.New(5), 100, 500, 10, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(6))
	sol, err := Solve(100, 500, stream.NewSlice(edges), Options{MaxPasses: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Passes > 3 {
		t.Fatalf("passes %d > 3", sol.Passes)
	}
}

func TestSolveErrors(t *testing.T) {
	edges := []stream.Edge{{Set: 0, Elem: 0}}
	if _, err := Solve(0, 1, stream.NewSlice(edges), Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Solve(1, 0, stream.NewSlice(edges), Options{}); err == nil {
		t.Error("m=0 accepted")
	}
	bad := []stream.Edge{{Set: 3, Elem: 0}}
	if _, err := Solve(1, 1, stream.NewSlice(bad), Options{}); err == nil {
		t.Error("bad edge accepted")
	}
}

// TestRoundOneCoverPerSeed rounds a solution whose coins draw (boost·x
// below 1 for some set) fifty times from one seed, and fails unless every
// call returns the same cover.
func TestRoundOneCoverPerSeed(t *testing.T) {
	const n, m = 80, 400
	w := workload.UniformRandom(xrand.New(3), n, m, 2, 6)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(4))
	sol, err := Solve(n, m, stream.NewSlice(edges), Options{Delta: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	draws := 0
	for _, x := range sol.X {
		if (math.Log(n)+1)*x < 1 {
			draws++
		}
	}
	if draws == 0 {
		t.Fatalf("no coin of the %d sets in X draws", len(sol.X))
	}
	var first *setcover.Cover
	for i := 0; i < 50; i++ {
		cov, err := Round(n, m, stream.NewSlice(edges), sol, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = cov
		} else if !cov.Equal(first) {
			t.Fatalf("call %d: %d sets, first call %d; one seed must round to one cover", i, cov.Size(), first.Size())
		}
	}
}

func TestRoundProducesValidCover(t *testing.T) {
	w := workload.Planted(xrand.New(7), 150, 800, 5, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(8))
	sol, err := Solve(150, 800, stream.NewSlice(edges), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cov, err := Round(150, 800, stream.NewSlice(edges), sol, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := cov.Verify(w.Inst); err != nil {
		t.Fatalf("rounded cover invalid: %v", err)
	}
	bound := sol.Value*(math.Log(150)+1)*3 + 20
	if float64(cov.Size()) > bound {
		t.Errorf("rounded cover %d far above O(log n)·LP = %.0f", cov.Size(), bound)
	}
}

func TestDualBoundCertifiesOPT(t *testing.T) {
	// The dual bound must sandwich correctly: 0 < bound ≤ exact OPT.
	rng := xrand.New(21)
	for trial := 0; trial < 10; trial++ {
		w := workload.Planted(rng.Split(), 40, 120, 4, 0)
		edges := stream.Arrange(w.Inst, stream.Random, rng.Split())
		sol, err := Solve(40, 120, stream.NewSlice(edges), Options{})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := sol.DualBound(40, 120, stream.NewSlice(edges))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := setcover.ExactSize(w.Inst)
		if err != nil {
			t.Fatal(err)
		}
		if lb <= 0 {
			t.Fatalf("trial %d: dual bound %v not positive", trial, lb)
		}
		if lb > float64(opt)+1e-9 {
			t.Fatalf("trial %d: dual bound %v exceeds exact OPT %d — duality violated", trial, lb, opt)
		}
	}
}

func TestDualBoundOnTriangle(t *testing.T) {
	// LP OPT = 1.5 on the triangle instance; the dual bound must be ≤ 1.5
	// and clearly above the trivial 1.
	inst := setcover.MustNewInstance(3, [][]setcover.Element{{0, 1}, {1, 2}, {0, 2}})
	edges := stream.EdgesOf(inst)
	sol, err := Solve(3, 3, stream.NewSlice(edges), Options{Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sol.DualBound(3, 3, stream.NewSlice(edges))
	if err != nil {
		t.Fatal(err)
	}
	if lb > 1.5+1e-9 {
		t.Fatalf("dual bound %v exceeds LP optimum 1.5", lb)
	}
	if lb < 1.0 {
		t.Fatalf("dual bound %v below the trivial bound 1", lb)
	}
}

func TestDualBoundErrors(t *testing.T) {
	sol := &Solution{Coverage: make([]float64, 3)}
	if _, err := sol.DualBound(5, 3, stream.NewSlice(nil)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	bad := []stream.Edge{{Set: 9, Elem: 0}}
	if _, err := sol.DualBound(3, 3, stream.NewSlice(bad)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestRoundNilSolution(t *testing.T) {
	if _, err := Round(1, 1, stream.NewSlice(nil), nil, xrand.New(1)); err == nil {
		t.Fatal("nil solution accepted")
	}
}

func TestDeterministic(t *testing.T) {
	w := workload.Planted(xrand.New(10), 100, 500, 5, 0)
	a := solveOn(t, w, Options{})
	b := solveOn(t, w, Options{})
	if a.Value != b.Value || a.Passes != b.Passes {
		t.Fatal("solver not deterministic")
	}
}

func BenchmarkFractionalSolve(b *testing.B) {
	w := workload.Planted(xrand.New(1), 500, 5000, 10, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(500, 5000, stream.NewSlice(edges), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
