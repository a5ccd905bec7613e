// Package core implements Algorithm 1 of the paper — the main result
// (Theorem 3): a randomized one-pass Õ(√n)-approximation streaming algorithm
// for edge-arrival Set Cover in *random order* streams using only Õ(m/√n)
// space, breaking the Ω̃(m) adversarial-order barrier of Theorem 2.
//
// Structure (paper §4.1, Algorithm 1):
//
//   - The set family is partitioned into √n batches of m/√n sets; at any
//     moment the algorithm maintains counters only for the current batch,
//     which is what brings the space from Õ(m) down to Õ(m/√n).
//   - Epoch 0 samples every set into Sol with probability p_0 and detects
//     elements of degree ≥ 1.1·m/√n from a short stream prefix, marking them
//     as (optimistically) covered.
//   - Algorithms A(1)..A(K) run in sequence; A(i) devotes subepochs of
//     length ℓ_i ∝ 2^i to each batch in rotation, so a set that could cover
//     ≈ n/2^i yet-uncovered elements accumulates a counter signal in its
//     subepoch. Crossing the epoch-j threshold makes the set "special":
//     it joins Sol with probability p_j = 2^j·p_0 and a tracking sample Q̃'
//     with probability q_j = 2^j/n.
//   - Edges from tracked sets to unmarked elements are tallied in T; at each
//     epoch boundary, elements with a heavy tracked signal — those incident
//     to ≥ 1.1·m/(2^j√n) special sets, which the p_j-sampling covers with
//     high probability — are optimistically marked (line 31), which is what
//     keeps the number of special sets halving per epoch (Lemma 8).
//   - The rest of the stream only collects covering witnesses for Sol, and
//     a final patching phase covers anything left with its first-seen set.
//
// The paper's polylog constants are vacuous below astronomical scale; see
// Params for the documented calibration.
//
// Hot-path representation: the paper specifies the working state as
// dictionaries (C, Q̃, Q̃', T, Sol) and the space accounting charges one or
// two words per live entry. The implementation backs those dictionaries with
// dense generation-stamped tables (internal/dense) indexed by set/element
// id: membership tests are array loads, and the epoch/subepoch boundary
// "re-initialise" steps are O(1) generation bumps instead of map
// allocations. The physical arrays live in a pooled scratch (see scratch.go)
// so repeated runs reuse them; space.Tracked still meters the *logical*
// per-entry words of the paper's bounds, entry for entry identical to the
// original map-backed implementation.
package core

import (
	"streamcover/internal/dense"
	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

type phase int

const (
	phaseEpoch0 phase = iota
	phaseAlgs
	phaseRemainder
)

// Algorithm is one run of Algorithm 1. Create with New, feed edges with
// Process (in random order for the guarantees to hold), call Finish once.
type Algorithm struct {
	space.Tracked

	r     resolved
	shape string // r.String(), the snapshot shape fingerprint, formatted once
	rng   *xrand.Rand

	sink *obs.Sink // decision-event sink; nil (inert) unless a hub is installed

	pos   int
	phase phase

	sc *scratch // pooled dense state; released on Finish

	first        []setcover.SetID // R(u): first set seen containing u (line 4)
	firstFree    int              // elements with no first-set record yet
	cert         []setcover.SetID // covering witness
	coveredCount int              // running count of witnessed elements
	marked       dense.Bits       // marked-as-covered (line 3); may lack a witness
	sol          dense.Bits       // Sol membership over set ids
	solCount     int              // |Sol|

	e0counts []int32 // element occurrence counts in the epoch-0 prefix

	// A-phase cursor: current algorithm ai ∈ [1,K], epoch ej ∈ [1,E],
	// subepoch sub ∈ [0,B), position within the subepoch.
	ai, ej, sub, subPos int

	counters dense.Counts     // C[S] for the current batch, indexed by S/B (line 17)
	qCur     dense.StampedSet // Q̃: tracked sets this epoch
	qNext    dense.StampedSet // Q̃': sampled specials for next epoch
	qCurProb float64          // the (clamped) probability qCur was sampled with
	tcounts  dense.Counts     // T: tracked-edge counts per element

	trace    Trace
	finished bool
}

// New returns an Algorithm 1 run for an instance with n elements, m sets and
// stream length N (the number of edges; line "Require"). The paper shows N
// need not be known exactly — see AutoN for the guessing wrapper.
func New(n, m, N int, p Params, rng *xrand.Rand) *Algorithm {
	r := p.resolve(n, m, N)
	a := newState(r, rng)
	a.AuxMeter.Add(3 * int64(n))

	a.trace.Specials = make([][]int, r.K)
	for i := range a.trace.Specials {
		a.trace.Specials[i] = make([]int, r.E)
	}
	a.trace.AddedPerAlg = make([]int, r.K)
	if r.TraceSpecialSets {
		a.trace.SpecialSets = make([][][]int32, r.K)
		for i := range a.trace.SpecialSets {
			a.trace.SpecialSets[i] = make([][]int32, r.E)
		}
	}

	// Epoch 0, line 6: sample every set into Sol with probability p_0.
	if !r.DisableEpoch0Sampling {
		k := rng.Binomial(m, r.p0)
		for _, s := range rng.SampleK(m, k) {
			a.addToSol(setcover.SetID(s))
		}
	}
	a.trace.AddedEpoch0 = a.solCount

	if r.epoch0P > 0 && !r.DisableEpoch0Detection {
		a.AuxMeter.Add(int64(n))
		a.phase = phaseEpoch0
	} else {
		a.startAPhase()
	}
	return a
}

// newState assembles the dense working state for a resolved schedule,
// drawing the backing arrays from the scratch pool. It performs no sampling
// and sets up no trace, so internal tests can drive the state machine
// directly.
func newState(r resolved, rng *xrand.Rand) *Algorithm {
	sc := getScratch(r.n, r.m, countersCap(r.m, r.B))
	a := &Algorithm{
		r:        r,
		shape:    r.String(),
		rng:      rng,
		sink:     obs.SinkFor(obs.AlgoAlg1),
		sc:       sc,
		first:    sc.first,
		cert:     make([]setcover.SetID, r.n),
		marked:   sc.marked,
		sol:      sc.sol,
		e0counts: sc.e0counts,
		counters: sc.counters,
		qCur:     sc.qCur,
		qNext:    sc.qNext,
		tcounts:  sc.tcounts,
	}
	for u := 0; u < r.n; u++ {
		a.first[u] = setcover.NoSet
		a.cert[u] = setcover.NoSet
	}
	a.firstFree = r.n
	return a
}

// countersCap is the size of the batch-local counter table: sets are
// assigned to batches by id mod B, so batch b holds ids {b, b+B, b+2B, ...}
// and the in-batch index s/B never exceeds ⌈m/B⌉.
func countersCap(m, b int) int { return (m + b - 1) / b }

// Release implements stream.Releaser: it returns the dense state to the
// scratch pool without finishing, as Finish does, for a run nothing will
// read again, such as a served session whose checkpoint is written.
// The evolved generation counters are copied back so a future reuse can
// invalidate the stamps in O(1). The run keeps no reference into the
// returned tables: Finish and ProcessBatch panic, Process panics on an
// empty table instead of writing into a scratch another run now holds, and
// Snapshot and Restore fail.
func (a *Algorithm) Release() {
	sc := a.sc
	if sc == nil {
		return
	}
	a.sc = nil
	sc.first = a.first
	sc.marked = a.marked
	sc.sol = a.sol
	sc.e0counts = a.e0counts
	sc.counters = a.counters
	sc.qCur = a.qCur
	sc.qNext = a.qNext
	sc.tcounts = a.tcounts
	a.first, a.e0counts = nil, nil
	a.marked, a.sol = dense.Bits{}, dense.Bits{}
	a.counters, a.tcounts = dense.Counts{}, dense.Counts{}
	a.qCur, a.qNext = dense.StampedSet{}, dense.StampedSet{}
	putScratch(sc)
}

// Resolved returns the concrete schedule in use, for reports.
func (a *Algorithm) Resolved() string { return a.shape }

func (a *Algorithm) addToSol(s setcover.SetID) {
	if a.sol.Test(s) {
		return
	}
	a.sol.Set(s)
	a.solCount++
	a.StateMeter.Add(space.SetEntryWords)
	a.sink.Emit(obs.KindSetSelected, int64(a.pos), int64(s), int64(a.solCount), int64(a.ej))
	if a.solCount >= a.r.n {
		a.trace.Degenerate = true
	}
}

func (a *Algorithm) batchOf(s setcover.SetID) int { return int(s) % a.r.B }

// startAPhase begins A(1): fresh counters and the initial tracking sample
// Q̃ of all sets with probability q_0 (line 10).
func (a *Algorithm) startAPhase() {
	a.sink.Emit(obs.KindPhase, int64(a.pos), int64(phaseAlgs), int64(a.phase), 0)
	a.phase = phaseAlgs
	a.ai, a.ej, a.sub, a.subPos = 1, 1, 0, 0
	a.counters.Clear()
	a.tcounts.Clear()
	a.qNext.Clear()
	a.sampleInitialQ()
}

func (a *Algorithm) sampleInitialQ() {
	a.StateMeter.Sub(int64(a.qCur.Len()) * space.SetEntryWords)
	a.qCur.Clear()
	a.qCurProb = a.r.qj(0)
	if a.r.DisableTracking {
		return
	}
	k := a.rng.Binomial(a.r.m, a.qCurProb)
	for _, s := range a.rng.SampleK(a.r.m, k) {
		a.qCur.Add(setcover.SetID(s))
	}
	a.StateMeter.Add(int64(a.qCur.Len()) * space.SetEntryWords)
}

// Process implements stream.Algorithm.
func (a *Algorithm) Process(e stream.Edge) { a.process(e) }

// ProcessBatch implements stream.BatchProcessor: it consumes a contiguous
// run of edges with one dynamic dispatch. The A-phase runs in blocks that
// end where the current subepoch ends (algBlock), and the remainder phase —
// the long witness-collection suffix — in a dedicated tight loop; only
// epoch 0's short prefix goes edge by edge. A run whose state Finish or
// Release has handed back panics here rather than write into a pooled table.
func (a *Algorithm) ProcessBatch(edges []stream.Edge) {
	if a.sc == nil && len(edges) > 0 {
		panic("core: ProcessBatch after Finish or Release")
	}
	for len(edges) > 0 {
		switch a.phase {
		case phaseRemainder:
			a.processRemainder(edges)
			return
		case phaseAlgs:
			k := min(len(edges), a.r.ell[a.ai]-a.subPos)
			a.algBlock(edges[:k])
			edges = edges[k:]
		default:
			a.process(edges[0])
			edges = edges[1:]
		}
	}
}

func (a *Algorithm) process(e stream.Edge) {
	a.pos++
	u, s := e.Elem, e.Set
	if a.first[u] == setcover.NoSet {
		a.first[u] = s
		a.firstFree--
	}
	// Lines 20–21 and 34–36: an edge from a chosen set supplies a covering
	// witness, in every phase.
	solHit := a.sol.Test(s)
	if solHit && a.cert[u] == setcover.NoSet {
		a.cert[u] = s
		a.coveredCount++
		a.marked.Set(u)
		a.sink.Emit(obs.KindCertWrite, int64(a.pos), int64(u), int64(s), -1)
	}

	switch a.phase {
	case phaseEpoch0:
		a.trace.Epoch0Edges++
		a.e0counts[u]++
		if a.pos >= a.r.epoch0P {
			a.finishEpoch0()
		}

	case phaseAlgs:
		a.trace.APhaseEdges++
		if !solHit && !a.marked.Test(u) {
			a.processAlgEdge(u, s)
		}
		a.advanceCursor(1)

	case phaseRemainder:
		a.trace.RemainderEdges++
	}
}

// algBlock is the phaseAlgs body of process over edges that all lie in the
// current subepoch: ProcessBatch ends every block where the subepoch ends,
// so the cursor, the batch and the special threshold hold for the whole
// block, and the edge count and cursor move once at its end.
//
// An element with a witness is marked (every witness write marks it, and
// Restore checks it), so its edges — four in five of the A-phase at
// servebench's shape — have nothing to do but the first-set record. A
// first pass over up to algStage edges makes the records and lists,
// without a branch, the edges whose element has no witness; a second runs
// the body on those alone, in order. A witness written in the second pass
// only takes work away from later edges, so the body re-checks it, and a
// block makes the same writes, coins and events as Process. The batch test
// is batchTest's division-free form of batchOf(s) == sub. An edge that
// needs T or C goes to track or count, the bodies processAlgEdge shares, so
// the special-set coins have one body.
func (a *Algorithm) algBlock(edges []stream.Edge) {
	first, cert, sol, marked := a.first, a.cert, a.sol, a.marked
	qCur := a.qCur // Q̃ rotates only at an epoch's end
	inBatch := a.r.batchTest(a.sub)
	thr := a.r.specialThreshold(a.ej)
	free, base := a.firstFree, a.pos
	n := len(edges)
	var live [algStage]uint16
	for len(edges) > 0 {
		chunk := edges[:min(len(edges), algStage)]
		k := 0
		for i, e := range chunk {
			u := e.Elem
			if free > 0 && first[u] == setcover.NoSet {
				first[u] = e.Set
				free--
			}
			live[k] = uint16(i)
			if cert[u] == setcover.NoSet {
				k++
			}
		}
		for _, i := range live[:k] {
			e := chunk[i]
			u, s := e.Elem, e.Set
			if cert[u] != setcover.NoSet {
				continue
			}
			pos := base + int(i) + 1
			if sol.Test(s) {
				cert[u] = s
				a.coveredCount++
				marked.Set(u)
				a.sink.Emit(obs.KindCertWrite, int64(pos), int64(u), int64(s), -1)
				continue
			}
			if marked.Test(u) {
				continue
			}
			if qCur.Has(s) {
				a.track(u)
			}
			if inBatch.has(s) {
				a.pos = pos // count's events and SolAdditions read it
				a.count(u, s, thr)
			}
		}
		base += len(chunk)
		edges = edges[len(chunk):]
	}
	a.firstFree, a.pos = free, base
	a.trace.APhaseEdges += n
	a.advanceCursor(n)
}

// algStage is how many edges algBlock's first pass lists at a time.
const algStage = 256

// processRemainder is the phaseRemainder body of process run in blocks of
// up to dense.KernelBlockEdges edges: only first-set recording and witness
// collection remain (lines 34–36), and in the steady state almost every
// edge does neither. Once every element has a first-set record and a
// certificate, an entire block is skipped with one compare. The inner loop
// stays scalar by measurement, not oversight: a mask formulation (stage set
// ids, gather "set ∈ Sol" into activity words, scan set bits) is
// byte-identical but ~7% slower end to end on the benchmark family,
// because Sol's hit density is a coverage-independent |Sol|/m —
// activity words stay sparse but never empty — while the scalar loop's two
// L1 gathers ride perfectly predicted branches. DESIGN.md §4g records the
// crossover; kk (density-gated) and alg2 (expensive per-edge body) are the
// profitable kernel hosts.
func (a *Algorithm) processRemainder(edges []stream.Edge) {
	for len(edges) > 0 {
		k := len(edges)
		if k > dense.KernelBlockEdges {
			k = dense.KernelBlockEdges
		}
		a.remainderBlock(edges[:k])
		edges = edges[k:]
	}
}

func (a *Algorithm) remainderBlock(edges []stream.Edge) {
	k := len(edges)
	a.trace.RemainderEdges += k
	if a.firstFree == 0 && a.coveredCount == a.r.n {
		a.pos += k
		return
	}
	first, cert := a.first, a.cert
	pos := a.pos
	for _, e := range edges {
		pos++
		u, s := e.Elem, e.Set
		if first[u] == setcover.NoSet {
			first[u] = s
			a.firstFree--
		}
		if cert[u] == setcover.NoSet && a.sol.Test(s) {
			cert[u] = s
			a.coveredCount++
			a.marked.Set(u)
			a.sink.Emit(obs.KindCertWrite, int64(pos), int64(u), int64(s), -1)
		}
	}
	a.pos = pos
}

// processAlgEdge is the body of the subepoch loop (lines 24–30) for an edge
// whose element is unmarked and whose set is outside Sol.
func (a *Algorithm) processAlgEdge(u setcover.Element, s setcover.SetID) {
	if a.qCur.Has(s) {
		a.track(u)
	}
	if a.batchOf(s) == a.sub {
		a.count(u, s, a.r.specialThreshold(a.ej))
	}
}

// track tallies an edge from a tracked set (in Q̃) to u in T.
func (a *Algorithm) track(u setcover.Element) {
	if _, firstTouch := a.tcounts.Inc(u); firstTouch {
		a.StateMeter.Add(space.MapEntryWords)
		if a.tcounts.Len() > a.trace.TrackedPeak {
			a.trace.TrackedPeak = a.tcounts.Len()
		}
	}
}

// count bumps C[S] for an edge from s, a set of the current batch, to u;
// the set turns special when its count reaches thr, the current epoch's
// threshold.
func (a *Algorithm) count(u setcover.Element, s setcover.SetID, thr int32) {
	c, firstTouch := a.counters.Inc(s / setcover.SetID(a.r.B))
	if firstTouch {
		a.StateMeter.Add(space.MapEntryWords)
	}
	if c != thr {
		return
	}
	// S is special (line 28): eligible for Sol and for tracking next epoch.
	a.trace.Specials[a.ai-1][a.ej-1]++
	if a.r.TraceSpecialSets {
		a.trace.SpecialSets[a.ai-1][a.ej-1] = append(a.trace.SpecialSets[a.ai-1][a.ej-1], int32(s))
	}
	if a.rng.Coin(a.r.pj(a.ej)) {
		a.addToSol(s)
		a.trace.AddedPerAlg[a.ai-1]++
		a.trace.SolAdditions = append(a.trace.SolAdditions,
			SolAddition{Pos: a.pos - 1, Set: s, Alg: a.ai, Epoch: a.ej})
		// The triggering edge itself witnesses u — the listing leaves this
		// to later arrivals, but covering it here is strictly better and
		// avoids one guaranteed missed edge.
		if a.cert[u] == setcover.NoSet {
			a.cert[u] = s
			a.coveredCount++
			a.marked.Set(u)
			a.sink.Emit(obs.KindCertWrite, int64(a.pos), int64(u), int64(s), -1)
		}
	} else {
		a.sink.Emit(obs.KindSampleDrop, int64(a.pos), int64(s), int64(a.ej), 0)
	}
	if !a.r.DisableTracking && a.rng.Coin(a.r.qj(a.ej)) {
		if a.qNext.Add(s) {
			a.StateMeter.Add(space.SetEntryWords)
			a.sink.Emit(obs.KindSampleKeep, int64(a.pos), int64(s), int64(a.ej), 0)
		}
	}
}

// advanceCursor moves the subepoch/epoch/algorithm cursor past k A-phase
// edges, which never run past the current subepoch's end, and fires the
// boundary work when they reach it.
func (a *Algorithm) advanceCursor(k int) {
	a.subPos += k
	if a.subPos < a.r.ell[a.ai] {
		return
	}
	// Subepoch boundary: drop the batch counters (line 17 re-initialises
	// them for the next batch; a generation bump does it in O(1)).
	a.subPos = 0
	a.StateMeter.Sub(int64(a.counters.Len()) * space.MapEntryWords)
	a.counters.Clear()
	a.sub++
	if a.sub < a.r.B {
		return
	}
	a.sub = 0
	a.endOfEpoch()
	a.ej++
	if a.ej <= a.r.E {
		return
	}
	a.ej = 1
	a.ai++
	if a.ai <= a.r.K {
		// Line 10 runs per A(i): a fresh q_0 sample of all sets.
		a.sampleInitialQ()
		return
	}
	a.enterRemainder()
}

// endOfEpoch performs line 31's optimistic marking and line 32's rotation
// of the tracked sample.
func (a *Algorithm) endOfEpoch() {
	// An element incident to ≥ fdStar = 1.1·m/(2^j·√n) special sets is
	// covered by the p_j-sampling w.h.p.; its expected tracked-edge count
	// this epoch is fdStar·q·(B·ℓ_i/N). Marking at 98.5% of that expectation
	// reproduces the listing's 1.085/1.1 margin while self-calibrating to
	// whatever schedule Params chose.
	fdStar := 1.1 * float64(a.r.m) / (float64(int64(1)<<uint(a.ej)) * float64(a.r.B))
	epochFrac := float64(a.r.B*a.r.ell[a.ai]) / float64(a.r.N)
	thr := 0.985 * fdStar * a.qCurProb * epochFrac
	if thr < 2 {
		thr = 2
	}
	if !a.r.DisableTracking {
		a.tcounts.ForEach(func(u, c int32) {
			if !a.marked.Test(u) && float64(c) >= thr {
				a.marked.Set(u)
				a.trace.MarkedTracking++
			}
		})
	}
	// Rotate Q̃ ← Q̃' (line 32) and reset T.
	a.StateMeter.Sub(int64(a.tcounts.Len()) * space.MapEntryWords)
	a.tcounts.Clear()
	a.StateMeter.Sub(int64(a.qCur.Len()) * space.SetEntryWords)
	a.qCur.Swap(&a.qNext)
	a.qCurProb = a.r.qj(a.ej)
	a.qNext.Clear()
	a.sink.Emit(obs.KindEpoch, int64(a.pos), int64(a.ej), int64(a.solCount), int64(a.ai))
}

// enterRemainder releases all A-phase state; lines 33–36 only need Sol and
// the per-element bookkeeping. It also snapshots the (I1)-relevant state
// for the ablation harness (diagnostics, not charged to the meter).
func (a *Algorithm) enterRemainder() {
	a.sink.Emit(obs.KindPhase, int64(a.pos), int64(phaseRemainder), int64(a.phase), 0)
	a.phase = phaseRemainder
	a.trace.MarkedAtAEnd = a.marked.AppendBools(nil)
	a.sol.ForEach(func(s int32) {
		a.trace.SolAtAEnd = append(a.trace.SolAtAEnd, s)
	})
	a.StateMeter.Sub(int64(a.counters.Len()) * space.MapEntryWords)
	a.StateMeter.Sub(int64(a.tcounts.Len()) * space.MapEntryWords)
	a.StateMeter.Sub(int64(a.qCur.Len()) * space.SetEntryWords)
	a.StateMeter.Sub(int64(a.qNext.Len()) * space.SetEntryWords)
	a.counters.Clear()
	a.tcounts.Clear()
	a.qCur.Clear()
	a.qNext.Clear()
}

// finishEpoch0 marks elements whose prefix occurrence count certifies degree
// ≥ ~1.1·m/√n (line 7, Lemma 6's base case) and starts A(1).
func (a *Algorithm) finishEpoch0() {
	heavyDeg := 1.1 * float64(a.r.m) / float64(a.r.B)
	thr := 0.985 * heavyDeg * float64(a.r.epoch0P) / float64(a.r.N)
	if thr < 3 {
		thr = 3
	}
	for u, c := range a.e0counts {
		if !a.marked.Test(int32(u)) && float64(c) >= thr {
			a.marked.Set(int32(u))
			a.trace.MarkedEpoch0++
		}
	}
	a.AuxMeter.Sub(int64(a.r.n))
	a.startAPhase()
}

// Finish implements stream.Algorithm: the patching phase (line 38) plus the
// |Sol| ≥ n trivial-cover fallback from Theorem 3's space analysis.
func (a *Algorithm) Finish() *setcover.Cover {
	if a.finished {
		panic("core: Finish called twice")
	}
	if a.sc == nil {
		panic("core: Finish after Release")
	}
	a.finished = true
	if a.phase == phaseAlgs {
		a.enterRemainder()
	}
	defer a.Release()
	if a.trace.Degenerate {
		// |Sol| reached n: report the trivial one-set-per-element cover,
		// which is never larger than n sets.
		chosen := make([]setcover.SetID, 0, a.r.n)
		for u := range a.cert {
			a.cert[u] = a.first[u]
			if a.first[u] != setcover.NoSet {
				chosen = append(chosen, a.first[u])
			}
		}
		return setcover.NewCover(chosen, a.cert)
	}
	chosen := make([]setcover.SetID, 0, a.solCount+16)
	a.sol.ForEach(func(s int32) { chosen = append(chosen, s) })
	for u := range a.cert {
		if a.cert[u] == setcover.NoSet && a.first[u] != setcover.NoSet {
			a.cert[u] = a.first[u]
			chosen = append(chosen, a.first[u])
			a.trace.Patched++
		}
	}
	a.sink.Count(obs.KindPatch, int64(a.trace.Patched))
	return setcover.NewCover(chosen, a.cert)
}

// Trace returns the run's diagnostic counters (see Trace). The pointer stays
// valid for the lifetime of the algorithm.
func (a *Algorithm) Trace() *Trace { return &a.trace }

// SampledSets returns |Sol| (sets chosen by sampling, before patching).
func (a *Algorithm) SampledSets() int { return a.solCount }

// CoveredCount implements stream.CoverageReporter: the number of elements
// currently holding a covering witness (marked-without-witness elements are
// not counted).
func (a *Algorithm) CoveredCount() int { return a.coveredCount }

// SetObs replaces the decision-event sink (tests attach private hubs here;
// nil detaches).
func (a *Algorithm) SetObs(s *obs.Sink) { a.sink = s }

// ObsAlgo implements obs.Identified.
func (a *Algorithm) ObsAlgo() obs.AlgoID { return obs.AlgoAlg1 }

var _ stream.Algorithm = (*Algorithm)(nil)
var _ stream.BatchProcessor = (*Algorithm)(nil)
var _ stream.Releaser = (*Algorithm)(nil)
var _ space.Reporter = (*Algorithm)(nil)
