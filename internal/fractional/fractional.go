// Package fractional implements a multi-pass streaming solver for
// *fractional* Set Cover in the edge-arrival model, after Indyk, Mahabadi,
// Rubinfeld, Ullman, Vakilian and Yodpinyanee (APPROX'17, [16] in the
// paper), whose multi-pass fractional algorithm the paper notes "can also
// be implemented in the edge-arrival setting" (§1).
//
// The LP is  min Σ_S x_S  s.t.  Σ_{S∋u} x_S ≥ 1 ∀u,  x ≥ 0. The solver is
// the classical multiplicative-weights scheme adapted to edge arrival:
//
//   - it maintains a weight w(u) per uncovered element (Õ(n) space) and one
//     accumulator per set (Õ(m) space);
//   - each pass computes every set's total weight Σ_{u∈S} w(u) from the
//     edge stream, then adds a δ-sized fractional increment of the heaviest
//     set to the solution;
//   - the chosen set's weights are decayed during the *next* pass, when its
//     edges are seen again (the one-pass-lag trick that makes the update
//     edge-arrival implementable without storing any set);
//   - it stops once every element has accumulated ≥ 1 unit of fractional
//     coverage.
//
// With increment δ, the number of passes is O(OPT_f/δ + 1) and the value is
// within (1 + ln n)-ish of OPT_f in the greedy-like regime measured by the
// tests; the point of the module is the cited *edge-arrival
// implementability* and the LP lower bound LP ≤ OPT it supplies to
// experiments, plus randomized rounding back to an integral cover.
package fractional

import (
	"fmt"
	"math"

	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

// Solution is a fractional set cover.
type Solution struct {
	// X maps chosen sets to their fractional values (sets with x_S = 0 are
	// absent).
	X map[setcover.SetID]float64
	// Value is Σ x_S.
	Value float64
	// Passes is the number of passes consumed.
	Passes int
	// Coverage[u] is the fractional coverage Σ_{S∋u} x_S accumulated for u.
	Coverage []float64
	// Space is the peak meter reading.
	Space space.Usage
}

// Feasible reports whether every element that appears in the stream has
// coverage ≥ 1 − eps.
func (s *Solution) Feasible(eps float64) bool {
	for _, c := range s.Coverage {
		if c < 1-eps && c > 0 { // c == 0 means the element never appeared
			return false
		}
	}
	return true
}

// Options configure Solve.
type Options struct {
	// Delta is the per-pass fractional increment (default 1).
	Delta float64
	// MaxPasses caps the pass count (0 = 4·n/Delta, hard cap 10_000).
	MaxPasses int
}

// Solve runs the multi-pass fractional solver on a replayable edge stream
// of an instance with n elements and m sets.
func Solve(n, m int, s stream.Stream, opt Options) (*Solution, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("fractional: need n > 0 and m > 0")
	}
	delta := opt.Delta
	if delta <= 0 {
		delta = 1
	}
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = int(4*float64(n)/delta) + 4
	}
	if maxPasses > 10_000 {
		maxPasses = 10_000
	}

	var tracked space.Tracked
	tracked.AuxMeter.Add(2 * int64(n)) // coverage + per-element appearance
	tracked.StateMeter.Add(int64(m))   // per-set weight accumulators

	coverage := make([]float64, n)
	weightAcc := make([]float64, m)
	sol := &Solution{X: map[setcover.SetID]float64{}, Coverage: coverage}

	// lastChosen is the set whose δ-increment from the previous pass still
	// needs its elements' coverage bumped (the one-pass lag).
	lastChosen := setcover.NoSet

	for pass := 0; pass < maxPasses; pass++ {
		sol.Passes++
		for i := range weightAcc {
			weightAcc[i] = 0
		}
		uncovered := false
		anySeen := false

		err := stream.Pass(s, func(e stream.Edge) error {
			u, set := e.Elem, e.Set
			if u < 0 || int(u) >= n || set < 0 || int(set) >= m {
				return fmt.Errorf("fractional: edge %v out of range", e)
			}
			anySeen = true
			if coverage[u] == 0 {
				coverage[u] = math.SmallestNonzeroFloat64 // mark as appearing
			}
			if set == lastChosen {
				coverage[u] += delta
			}
			if coverage[u] < 1 {
				uncovered = true
				// Element weight exp(-coverage): heavily uncovered elements
				// dominate the set scores.
				weightAcc[set] += math.Exp(-coverage[u] * math.Ln2 * 4)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lastChosen = setcover.NoSet
		if !uncovered || !anySeen {
			break
		}

		// Choose the heaviest set and commit a δ increment; its coverage
		// effect lands during the next pass.
		best := setcover.NoSet
		bestW := 0.0
		for i, w := range weightAcc {
			if w > bestW {
				bestW = w
				best = setcover.SetID(i)
			}
		}
		if best == setcover.NoSet {
			break
		}
		if _, seen := sol.X[best]; !seen {
			tracked.StateMeter.Add(space.MapEntryWords)
		}
		sol.X[best] += delta
		sol.Value += delta
		lastChosen = best
	}

	// Clean the appearance markers back to true zero coverage.
	for u := range coverage {
		if coverage[u] == math.SmallestNonzeroFloat64 {
			coverage[u] = 0
		}
	}
	sol.Space = tracked.Space()
	return sol, nil
}

// DualBound extracts a certified lower bound on the optimal (fractional,
// hence also integral) cover size from a solved instance, using LP duality:
// any assignment y_u ≥ 0 with Σ_{u∈S} y_u ≤ 1 for every set S has value
// Σ_u y_u ≤ OPT_f ≤ OPT.
//
// The candidate duals are the solver's final element weights
// w_u = exp(−c·coverage_u); one extra pass computes every set's load
// Σ_{u∈S} w_u, and scaling by the maximum load makes the assignment
// feasible. Elements that never appear get weight zero. The bound is
// deterministic given the solution and always ≥ 1 on nonempty feasible
// instances (and ≥ n/maxSetSize-grade in practice, since uncovered-leaning
// weights concentrate on hard elements).
func (s *Solution) DualBound(n, m int, st stream.Stream) (float64, error) {
	if len(s.Coverage) != n {
		return 0, fmt.Errorf("fractional: solution for n=%d, got %d", len(s.Coverage), n)
	}
	weights := make([]float64, n)
	seen := make([]bool, n)
	loads := make([]float64, m)
	err := stream.Pass(st, func(e stream.Edge) error {
		u, set := e.Elem, e.Set
		if u < 0 || int(u) >= n || set < 0 || int(set) >= m {
			return fmt.Errorf("fractional: edge %v out of range", e)
		}
		if !seen[u] {
			seen[u] = true
			weights[u] = math.Exp(-s.Coverage[u] * math.Ln2 * 4)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	err = stream.Pass(st, func(e stream.Edge) error {
		loads[e.Set] += weights[e.Elem]
		return nil
	})
	if err != nil {
		return 0, err
	}
	maxLoad := 0.0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		return 0, nil
	}
	total := 0.0
	for u := 0; u < n; u++ {
		if seen[u] {
			total += weights[u]
		}
	}
	return total / maxLoad, nil
}

// Round converts a fractional solution into an integral cover by randomized
// rounding: every set is chosen independently with probability
// min(1, c·ln(n)·x_S), and any element left uncovered is patched with its
// first stream set (one extra pass collects witnesses and backups). The
// expected integral size is O(log n)·Value.
func Round(n, m int, s stream.Stream, sol *Solution, rng *xrand.Rand) (*setcover.Cover, error) {
	if sol == nil {
		return nil, fmt.Errorf("fractional: Round needs a solution")
	}
	boost := math.Log(float64(n)) + 1
	chosen := make(map[setcover.SetID]struct{})
	for set, x := range sol.X {
		if rng.Coin(math.Min(1, boost*x)) {
			chosen[set] = struct{}{}
		}
	}

	cert := make([]setcover.SetID, n)
	backup := make([]setcover.SetID, n)
	for u := range cert {
		cert[u] = setcover.NoSet
		backup[u] = setcover.NoSet
	}
	err := stream.Pass(s, func(e stream.Edge) error {
		if backup[e.Elem] == setcover.NoSet {
			backup[e.Elem] = e.Set
		}
		if _, in := chosen[e.Set]; in && cert[e.Elem] == setcover.NoSet {
			cert[e.Elem] = e.Set
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ids := make([]setcover.SetID, 0, len(chosen))
	for set := range chosen {
		ids = append(ids, set)
	}
	for u := 0; u < n; u++ {
		if cert[u] == setcover.NoSet && backup[u] != setcover.NoSet {
			cert[u] = backup[u]
			ids = append(ids, backup[u])
		}
	}
	return setcover.NewCover(ids, cert), nil
}
