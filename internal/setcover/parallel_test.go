package setcover

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// coversEqual requires byte-identical covers: same chosen sets in the same
// order and the same certificate.
func coversEqual(t *testing.T, label string, want, got *Cover) {
	t.Helper()
	if !slices.Equal(want.Sets, got.Sets) {
		t.Fatalf("%s: sets differ: want %v got %v", label, want.Sets, got.Sets)
	}
	if !slices.Equal(want.Certificate, got.Certificate) {
		t.Fatalf("%s: certificates differ", label)
	}
}

// Property: GreedyWorkers returns a byte-identical cover for every worker
// count 1..8, on instances small and large enough to exercise both the
// sequential clamp and the real sharded scan.
func TestParallelGreedyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 202))
	cases := []struct{ n, m int }{
		{30, 20},    // below the parallel clamp
		{120, 600},  // just above parallelGreedyMinSets
		{300, 1500}, // several sets per shard at 8 workers
	}
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			inst := randomFeasibleInstance(rng, tc.n, tc.m)
			seq, err := Greedy(inst)
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.Verify(inst); err != nil {
				t.Fatal(err)
			}
			for w := 1; w <= 8; w++ {
				par, err := GreedyWorkers(inst, w)
				if err != nil {
					t.Fatalf("n=%d m=%d workers=%d: %v", tc.n, tc.m, w, err)
				}
				coversEqual(t, "greedy", seq, par)
				if par.Size() != seq.Size() {
					t.Fatalf("workers=%d: cost %d want %d", w, par.Size(), seq.Size())
				}
			}
		}
	}
}

// The canonical selection rule itself: max gain first, lowest id on ties.
func TestGreedyLowestIndexTieBreak(t *testing.T) {
	// Sets 0 and 1 tie at gain 3; set 0 must win, then set 3 (gain 3 after
	// removal) beats set 2's remaining gain.
	inst := MustNewInstance(6, [][]Element{
		{0, 1, 2}, {3, 4, 5}, {0, 3}, {3, 4, 5},
	})
	c, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := []SetID{0, 1}
	if !slices.Equal(c.Sets, want) {
		t.Fatalf("greedy chose %v, want %v", c.Sets, want)
	}
}

// Property: ExactWorkers returns a byte-identical optimal cover for every
// worker count 1..8 on random small instances, and on one wider instance
// (22 elements, 40 sets) whose branch-and-bound tree is deep enough for the
// workers to split it many ways.
func TestParallelExactMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(303, 404))
	check := func(n, m int) {
		t.Helper()
		inst := randomFeasibleInstance(rng, n, m)
		seq, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.Verify(inst); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 8; w++ {
			par, err := ExactWorkers(inst, w)
			if err != nil {
				t.Fatalf("n=%d m=%d workers %d: %v", n, m, w, err)
			}
			coversEqual(t, "exact", seq, par)
			if par.Size() != seq.Size() {
				t.Fatalf("n=%d m=%d workers=%d: cost %d want %d", n, m, w, par.Size(), seq.Size())
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		check(rng.IntN(20)+4, rng.IntN(16)+3)
	}
	check(22, 40)
}

// Stress the shared atomic incumbent bound under the race detector: many
// root branches, repeated runs, full worker fan-out. Run with -race (make
// check does) to exercise the CAS-min publication path.
func TestExactSharedBoundRace(t *testing.T) {
	rng := rand.New(rand.NewPCG(505, 606))
	// Dense instances where element 0 is in many sets, giving the root
	// fan-out plenty of concurrent subtrees competing to lower the bound.
	for trial := 0; trial < 6; trial++ {
		n := 18 + rng.IntN(6)
		sets := make([][]Element, 0, 24)
		for i := 0; i < 24; i++ {
			s := []Element{0} // every set contains element 0
			for j := 0; j < 6; j++ {
				s = append(s, Element(rng.IntN(n)))
			}
			sets = append(sets, s)
		}
		inst := MustNewInstance(n, sets)
		if inst.Validate() != nil {
			continue // infeasible draw; the race stress needs solvable instances
		}
		seq, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 4; rep++ {
			par, err := ExactWorkers(inst, 8)
			if err != nil {
				t.Fatal(err)
			}
			coversEqual(t, "exact race", seq, par)
		}
	}
}

func BenchmarkParallelGreedy(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	inst := randomFeasibleInstance(rng, 2000, 8000)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchName("w", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GreedyWorkers(inst, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelExact(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	inst := randomFeasibleInstance(rng, 24, 18)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchName("w", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExactWorkers(inst, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}
