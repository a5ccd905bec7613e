// Package kk implements the KK-algorithm (paper Theorem 1, due to Khanna
// and Konrad, ITCS'22 [19]): a randomized one-pass Õ(√n)-approximation
// streaming algorithm for edge-arrival Set Cover using Õ(m) space in
// adversarially ordered streams.
//
// The key device (paper §1.2) is the uncovered-degree counter: every tuple
// (S, u) with u not yet covered increments d(S). Whenever d(S) reaches i·√n
// for integral i ≥ 1, the set is included in the solution with probability
// min(1, 2^i·√n/m); once included it covers all its elements arriving from
// that moment onward. The analysis shows the number of level-i sets halves
// per level, so each level contributes only Õ(√n) sets.
//
// The paper proves this Õ(m) space bound optimal for α = Θ̃(√n) in
// adversarial order (Theorem 2), which is what makes the algorithm the
// baseline every other regime is measured against.
//
// Hot-path representation: the solution membership test — executed once per
// edge — is a dense bitset instead of a map, and the per-run arrays are
// recycled through a pool (released on Finish), so the steady-state edge
// loop performs no hashing and no allocation. The space meter still charges
// the logical words of the paper's accounting: m for the degree array plus
// one word per chosen set.
package kk

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"streamcover/internal/dense"
	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

// Algorithm is one run of the KK-algorithm. Create with New, feed the stream
// with Process, and call Finish once at the end.
type Algorithm struct {
	space.Tracked

	n, m  int
	sqrtN int
	rng   *xrand.Rand
	pcg   *rand.PCG // rng's generator, drawn from inline by plainBlock
	// levels[l] holds level l's coin, inclusionProb(l) as an
	// xrand.Threshold, and how many sets have reached level l. It runs to
	// the first level whose coin is certain (the top): a set that reaches
	// it is sampled and climbs no further. The coins are derived from
	// (n, m) and the tallies from deg, so SCSTATE1 carries neither.
	levels []kkLevel
	// stale marks tallies that miss the levels a Restore brought in:
	// LevelCounts and Finish recount them from deg first.
	stale bool

	sink *obs.Sink // decision-event sink; nil (inert) unless a hub is installed
	pos  int64     // edges processed, stamped on emitted events

	sc *kkScratch

	// deg packs each set's uncovered-degree state as level<<16 | low, where
	// the true degree is level·√n + low and 0 ≤ low < √n. The packing makes
	// the per-edge threshold test "low reached √n" a mask-and-compare
	// instead of an integer modulo, which profiling shows would otherwise
	// dominate the edge loop. Both fields are bounded by ~√n ≤ 2^16 (the
	// uncovered-degree never exceeds n).
	deg          []int32
	sol          dense.Bits // membership of the sampled solution
	solCount     int
	covered      []bool           // u covered by a set in sol (witness recorded)
	coveredCount int              // running count of covered elements
	first        []setcover.SetID // R(u): first set seen containing u
	firstFree    int              // elements with no first-set record yet
	cert         []setcover.SetID // output certificate

	patched  int // sets added by the patching phase, for reporting
	finished bool
}

// kkLevel is one rung of the degree ladder: the coin a set flips when its
// degree reaches the rung, and how many sets have reached it.
type kkLevel struct {
	coin    xrand.Threshold
	reached int
}

// kkScratch bundles the recyclable per-run arrays (everything but the
// certificate, which escapes into the Cover) plus the batch-kernel staging
// blocks: the per-element id block and the activity mask words (see
// internal/dense batch kernels). The staging blocks have fixed capacity, so
// reuse never needs to clear them — every kernel pass overwrites exactly the
// prefix it reads.
type kkScratch struct {
	n, m    int
	deg     []int32
	sol     dense.Bits
	covered []bool
	first   []setcover.SetID

	stageElems []int32
	maskC      []uint64 // covered-element gather
	maskF      []uint64 // first-set-needed gather
}

var kkPool sync.Pool

func getKKScratch(n, m int) *kkScratch {
	if v := kkPool.Get(); v != nil {
		sc := v.(*kkScratch)
		if sc.n == n && sc.m == m {
			clear(sc.deg)
			sc.sol.Reset()
			clear(sc.covered)
			return sc
		}
	}
	return &kkScratch{
		n:          n,
		m:          m,
		deg:        make([]int32, m),
		sol:        dense.NewBits(m),
		covered:    make([]bool, n),
		first:      make([]setcover.SetID, n),
		stageElems: make([]int32, dense.KernelBlockEdges),
		maskC:      make([]uint64, dense.MaskWords(dense.KernelBlockEdges)),
		maskF:      make([]uint64, dense.MaskWords(dense.KernelBlockEdges)),
	}
}

// New returns a KK-algorithm run for an instance with n elements and m sets,
// drawing coins from rng.
func New(n, m int, rng *xrand.Rand) *Algorithm {
	if n <= 0 || m <= 0 {
		panic("kk: need n > 0 and m > 0")
	}
	sc := getKKScratch(n, m)
	a := &Algorithm{
		n:       n,
		m:       m,
		sqrtN:   int(math.Max(1, math.Round(math.Sqrt(float64(n))))),
		rng:     rng,
		pcg:     rng.PCG(),
		sc:      sc,
		deg:     sc.deg,
		sol:     sc.sol,
		covered: sc.covered,
		first:   sc.first,
		cert:    make([]setcover.SetID, n),
		sink:    obs.SinkFor(obs.AlgoKK),
	}
	for u := range a.first {
		a.first[u] = setcover.NoSet
		a.cert[u] = setcover.NoSet
	}
	a.firstFree = n
	// inclusionProb is positive, so no threshold is 0: a coin that does
	// not draw is certain. No level-up reaches level 0 (only a restored
	// word no run reaches can), but the ladder runs past it to level 1.
	a.levels = make([]kkLevel, 0, 16)
	for lvl := 0; ; lvl++ {
		c := xrand.NewThreshold(a.inclusionProb(lvl))
		a.levels = append(a.levels, kkLevel{coin: c})
		if lvl > 0 && !c.Draws() {
			break
		}
	}
	a.levels[0].reached = m
	// The degree array is the algorithm's defining Θ(m) state; the three
	// per-element structures are the Õ(n) bookkeeping every regime carries.
	a.StateMeter.Add(int64(m))
	a.AuxMeter.Add(3 * int64(n))
	return a
}

// inclusionProb is the level-i inclusion probability min(1, 2^i·√n/m).
// Ldexp keeps large i finite (+Inf), which NewThreshold clamps to
// certainty.
func (a *Algorithm) inclusionProb(level int) float64 {
	return math.Ldexp(float64(a.sqrtN)/float64(a.m), level)
}

// Process implements stream.Algorithm.
func (a *Algorithm) Process(e stream.Edge) { a.process(e) }

// ProcessBatch implements stream.BatchProcessor. Each block runs under one
// of three schedules, chosen from the algorithm's own state and
// byte-identical to per-edge Process (same writes, coin flips and events;
// the equivalence tests in the repository root and the resume tests here
// hold them together).
//
//   - cold (coldBlock), until the first set is sampled: sol is empty and
//     nothing is covered, so an edge only records R(u) and bumps d(S).
//     Once every R(u) is recorded, only d(S) moves, and a loop with no call
//     in it runs up to the next level-up, which goes to levelUp.
//   - plain (plainBlock), below kkDenseCoverage: nearly every edge carries
//     work, so the per-edge body runs with the arrays hoisted into locals.
//     A level-up whose coin fails is handled in the loop; only a sampled
//     set calls out, to sample.
//   - mask, above it: edges are staged into a per-element id block, two
//     gather passes (internal/dense) pack "still uncovered" and "first set
//     unrecorded" into mask words — 64 edges per word — and only the set
//     bits run the per-edge body. Both predicates are monotone, so the
//     stage-time masks over-approximate activity and the body's exact
//     re-checks keep the path byte-identical. A fully saturated block
//     (coveredCount == n, no missing first records) is skipped with one
//     compare. A level-up goes to levelUp.
func (a *Algorithm) ProcessBatch(edges []stream.Edge) {
	if a.sc == nil && len(edges) > 0 {
		panic("kk: ProcessBatch after Finish or Release")
	}
	for len(edges) > 0 {
		k := len(edges)
		if k > dense.KernelBlockEdges {
			k = dense.KernelBlockEdges
		}
		a.processBlock(edges[:k])
		edges = edges[k:]
	}
}

// kkDenseCoverage is the covered fraction (in 1/64ths of n) above which the
// word-parallel mask path beats the plain loop: below it an activity word is
// rarely zero, so the 64-edges-per-compare skip cannot recoup the gathers.
const kkDenseCoverage = 63 // ≈ 98%

func (a *Algorithm) processBlock(edges []stream.Edge) {
	if a.solCount == 0 {
		if edges = a.coldBlock(edges); len(edges) == 0 {
			return
		}
	}
	k := len(edges)
	if a.coveredCount == a.n && a.firstFree == 0 {
		a.pos += int64(k)
		return
	}
	if a.coveredCount*64 < a.n*kkDenseCoverage {
		a.plainBlock(edges)
		return
	}
	sc := a.sc
	elems := sc.stageElems[:k]
	for i, e := range edges {
		elems[i] = e.Elem
	}
	words := dense.MaskWords(k)
	act := sc.maskC[:words]
	dense.BoolMask(a.covered, elems, act)
	tail := dense.TailMask(k)
	for w := range act {
		act[w] = ^act[w] // uncovered elements still have work
	}
	act[words-1] &= tail
	if a.firstFree > 0 {
		fneed := sc.maskF[:words]
		dense.EqMask32(a.first, elems, setcover.NoSet, fneed)
		for w := range act {
			act[w] |= fneed[w]
		}
	}

	first, covered, cert, deg := a.first, a.covered, a.cert, a.deg
	sol := a.sol
	sqrtN := int32(a.sqrtN)
	base := a.pos
	for w := 0; w < words; w++ {
		m := act[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			pos := base + int64(i) + 1
			u, s := elems[i], edges[i].Set
			if first[u] == setcover.NoSet {
				first[u] = s
				a.firstFree--
			}
			if sol.Test(s) {
				if !covered[u] {
					covered[u] = true
					a.coveredCount++
					cert[u] = s
					a.sink.Emit(obs.KindCertWrite, pos, int64(u), int64(s), -1)
				}
				continue
			}
			if covered[u] {
				continue
			}
			if d := deg[s] + 1; d&degLowMask != sqrtN {
				deg[s] = d
			} else {
				a.levelUp(u, s, d, pos)
			}
		}
	}
	a.pos = base + int64(k)
}

// coldBlock is the schedule before the first sample. With sol empty no edge
// meets a sampled set and no element is covered, so the per-edge body
// shrinks to the first-record check and the degree bump, and to the degree
// bump alone once every element has its R(u). It returns the edges after
// the one whose coin selected the first set, or none if no coin did.
func (a *Algorithm) coldBlock(edges []stream.Edge) []stream.Edge {
	if a.firstFree > 0 {
		return a.coldFirstBlock(edges)
	}
	deg := a.deg
	sqrtN := int32(a.sqrtN)
	for {
		i := coldDegrees(deg, edges, sqrtN)
		a.pos += int64(i)
		if i == len(edges) {
			return nil
		}
		a.pos++
		e := edges[i]
		if a.levelUp(e.Elem, e.Set, deg[e.Set]+1, a.pos) {
			return edges[i+1:]
		}
		edges = edges[i+1:]
	}
}

// coldDegrees bumps d(S) for each edge in turn and stops at the first edge
// that would take its set to the next level. It returns that edge's index,
// its count not yet bumped, or len(edges) if no edge does.
func coldDegrees(deg []int32, edges []stream.Edge, sqrtN int32) int {
	for i, e := range edges {
		d := deg[e.Set] + 1
		if d&degLowMask == sqrtN {
			return i
		}
		deg[e.Set] = d
	}
	return len(edges)
}

// coldFirstBlock is the cold schedule while some element still lacks its
// R(u), the first few thousand edges of a stream: the first-record check,
// the degree bump and a call to levelUp at each level-up.
func (a *Algorithm) coldFirstBlock(edges []stream.Edge) []stream.Edge {
	first, deg := a.first, a.deg
	sqrtN := int32(a.sqrtN)
	pos := a.pos
	for i, e := range edges {
		pos++
		u, s := e.Elem, e.Set
		if first[u] == setcover.NoSet {
			first[u] = s
			a.firstFree--
		}
		if d := deg[s] + 1; d&degLowMask != sqrtN {
			deg[s] = d
		} else if a.levelUp(u, s, d, pos) {
			a.pos = pos
			return edges[i+1:]
		}
	}
	a.pos = pos
	return nil
}

// plainBlock is the sparse-coverage schedule: the per-edge body with the
// arrays hoisted into locals (one bounds-checked slice header load each
// instead of a pointer chase per edge), identical write-for-write and
// coin-for-coin to the mask path above. Here a level-up comes every few
// edges and nearly always fails its coin, so the loop runs levelUp itself
// up to a failed coin, drawing from the PCG inline, and calls only sample.
// A call would spill the loop's registers at every level-up.
func (a *Algorithm) plainBlock(edges []stream.Edge) {
	first, covered, cert, deg := a.first, a.covered, a.cert, a.deg
	sol, levels, pcg, sink := a.sol, a.levels, a.pcg, a.sink
	top := uint32(len(levels) - 1)
	sqrtN := int32(a.sqrtN)
	pos := a.pos
	for _, e := range edges {
		pos++
		u, s := e.Elem, e.Set
		if first[u] == setcover.NoSet {
			first[u] = s
			a.firstFree--
		}
		if sol.Test(s) {
			if !covered[u] {
				covered[u] = true
				a.coveredCount++
				cert[u] = s
				sink.Emit(obs.KindCertWrite, pos, int64(u), int64(s), -1)
			}
			continue
		}
		if covered[u] {
			continue
		}
		d := deg[s] + 1
		if d&degLowMask != sqrtN {
			deg[s] = d
			continue
		}
		// levelUp, up to its coin. No threshold in levels is 0, so a coin
		// that does not draw comes up heads, as CoinAt decides it.
		level := d>>degLevelShift + 1
		deg[s] = level << degLevelShift
		lv := &levels[min(uint32(level), top)]
		lv.reached++
		sink.Emit(obs.KindLevelUp, pos, int64(s), int64(level), int64(level-1))
		if c := lv.coin; c.Draws() && !c.Admits(pcg.Uint64()) {
			sink.Emit(obs.KindSampleDrop, pos, int64(s), int64(level), 0)
			continue
		}
		a.sample(u, s, level, pos)
	}
	a.pos = pos
}

func (a *Algorithm) process(e stream.Edge) {
	a.pos++
	u, s := e.Elem, e.Set
	if a.first[u] == setcover.NoSet {
		a.first[u] = s
		a.firstFree--
	}
	if a.sol.Test(s) {
		if !a.covered[u] {
			a.covered[u] = true
			a.coveredCount++
			a.cert[u] = s
			a.sink.Emit(obs.KindCertWrite, a.pos, int64(u), int64(s), -1)
		}
		return
	}
	if a.covered[u] {
		return
	}
	if d := a.deg[s] + 1; d&degLowMask != int32(a.sqrtN) {
		a.deg[s] = d
	} else {
		a.levelUp(u, s, d, a.pos)
	}
}

// levelUp runs when edge (S, u) at stream position pos takes d(S) to the
// next multiple of √n; d is the packed degree after the increment. It bumps
// S's level, resets its low count, and flips the level's inclusion coin: on
// heads S joins the solution and covers u. It reports whether S was
// sampled. plainBlock repeats it inline up to the coin.
//
// Only a restored degree word that no run reaches can take a set past the
// top of the ladder (or below level 0). Such a level-up flips the top's
// coin, which is certain, as every coin above it is, and counts in the
// top's tally, which Restore has marked stale.
func (a *Algorithm) levelUp(u, s, d int32, pos int64) bool {
	level := d>>degLevelShift + 1
	a.deg[s] = level << degLevelShift
	lv := &a.levels[min(uint32(level), uint32(len(a.levels)-1))]
	lv.reached++
	a.sink.Emit(obs.KindLevelUp, pos, int64(s), int64(level), int64(level-1))
	if !a.rng.CoinAt(lv.coin) {
		a.sink.Emit(obs.KindSampleDrop, pos, int64(s), int64(level), 0)
		return false
	}
	a.sample(u, s, level, pos)
	return true
}

// sample adds S, whose coin at level came up heads on edge (S, u), to the
// solution, and covers u with it.
func (a *Algorithm) sample(u, s, level int32, pos int64) {
	a.sol.Set(s)
	a.solCount++
	a.StateMeter.Add(space.SetEntryWords)
	a.covered[u] = true
	a.coveredCount++
	a.cert[u] = s
	a.sink.Emit(obs.KindSetSelected, pos, int64(s), int64(a.solCount), int64(level))
	a.sink.Emit(obs.KindCertWrite, pos, int64(u), int64(s), -1)
}

// deg packing: low 16 bits count within the current level, high bits hold
// the level d(S)/√n.
const (
	degLevelShift = 16
	degLowMask    = 1<<degLevelShift - 1
)

// Finish implements stream.Algorithm: the patching phase covers every
// element without a witness using its stored first set R(u). It must be
// called exactly once; the recyclable working arrays are released here.
// The cover's sets are the sol bits once each R(u) is marked in them, so
// they come out sorted and without duplicates.
func (a *Algorithm) Finish() *setcover.Cover {
	if a.finished {
		panic("kk: Finish called twice")
	}
	if a.sc == nil {
		panic("kk: Finish after Release")
	}
	a.finished = true
	if a.stale {
		a.tally()
	}
	sol, first, cert := a.sol, a.first, a.cert
	size := a.solCount
	for u, w := range cert {
		if r := first[u]; w == setcover.NoSet && r != setcover.NoSet {
			cert[u] = r
			a.patched++
			if !sol.Test(r) {
				sol.Set(r)
				size++
			}
		}
	}
	a.sink.Count(obs.KindPatch, int64(a.patched))
	sets := make([]setcover.SetID, 0, size)
	sol.ForEach(func(s int32) { sets = append(sets, s) })
	a.Release()
	return &setcover.Cover{Sets: sets, Certificate: cert}
}

// Release implements stream.Releaser: it hands the working arrays back to
// the pool without finishing, as Finish does at its end. The run keeps no
// reference into them, so a released run cannot write into arrays another
// run now holds: Finish and ProcessBatch panic, Process panics on an empty
// array, and Snapshot and Restore fail.
func (a *Algorithm) Release() {
	sc := a.sc
	if sc == nil {
		return
	}
	a.sc, a.deg, a.covered, a.first = nil, nil, nil, nil
	a.sol = dense.Bits{}
	kkPool.Put(sc)
}

// Patched returns how many elements the patching phase covered, available
// after Finish.
func (a *Algorithm) Patched() int { return a.patched }

// SampledSets returns how many sets the probabilistic inclusion process
// added (excluding patching), available at any time.
func (a *Algorithm) SampledSets() int { return a.solCount }

// CoveredCount implements stream.CoverageReporter: the number of elements
// currently holding a covering witness.
func (a *Algorithm) CoveredCount() int { return a.coveredCount }

// SetObs replaces the decision-event sink (tests attach private hubs here;
// nil detaches).
func (a *Algorithm) SetObs(s *obs.Sink) { a.sink = s }

// ObsAlgo implements obs.Identified.
func (a *Algorithm) ObsAlgo() obs.AlgoID { return obs.AlgoKK }

// LevelCounts returns |S_i| for i = 0..max: the number of sets whose final
// uncovered-degree lies in [i·√n, (i+1)·√n). The analysis of [19] shows
// E|S_i| ≤ ½·E|S_{i-1}|; the E-ABL-KK ablation verifies this decay
// empirically. Available both mid-stream and after Finish: a set's level
// moves only at a level-up, which tallies it, so the counts come from the
// tallies rather than from the degree array.
func (a *Algorithm) LevelCounts() []int {
	if a.stale {
		a.tally()
	}
	counts := make([]int, 0, len(a.levels))
	for l, lv := range a.levels {
		if lv.reached == 0 {
			break // no set is at this level or above
		}
		counts = append(counts, lv.reached)
		if l > 0 {
			counts[l-1] -= lv.reached
		}
	}
	return counts
}

// tally recounts the per-level tallies from the degree words, for a run
// whose tallies a Restore left stale. A word no run reaches may lie past
// the top of the ladder; it counts at the top.
func (a *Algorithm) tally() {
	top := uint32(len(a.levels) - 1)
	for l := range a.levels {
		a.levels[l].reached = 0
	}
	for _, d := range a.deg {
		a.levels[min(uint32(d)>>degLevelShift, top)].reached++
	}
	for l := top; l > 0; l-- {
		a.levels[l-1].reached += a.levels[l].reached
	}
	a.stale = false
}

var _ stream.Algorithm = (*Algorithm)(nil)
var _ stream.BatchProcessor = (*Algorithm)(nil)
var _ stream.Releaser = (*Algorithm)(nil)
var _ space.Reporter = (*Algorithm)(nil)
