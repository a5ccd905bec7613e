// Package multipass implements the multi-pass edge-arrival Set Cover
// algorithm of Bateni, Esfandiari and Mirrokni (SPAA'17, [6] in the paper)
// in its sample-and-prune form — the p-pass baseline the paper's
// introduction contrasts with its one-pass results.
//
// Each round makes one pass over the stream. At the start of a round every
// yet-uncovered element is put in a sample with probability
// p = min(1, B/|U|), where B is the element-sample budget and |U| the
// current uncovered count; during the pass the algorithm stores the
// projection of every set onto the sampled elements (the round's sketch)
// and, at the end, adds an offline greedy cover of the sampled elements to
// the solution. Elements covered by the growing solution are pruned as
// their edges arrive in later passes. Larger budgets mean denser samples,
// fewer rounds and better covers at more space — exactly the passes/space
// trade-off of the multi-pass literature ([6], [10], [1], [15]).
//
// The run is factored into an explicit state machine (Algorithm with
// BeginPass/ProcessEdge/EndPass/Finish) so that a multi-pass run can be
// snapshotted between — or in the middle of — passes and resumed later; Run
// drives the state machine over a replayable stream and is behaviorally
// identical to the original closed-loop implementation, coin flip for coin
// flip.
package multipass

import (
	"fmt"

	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

// Result reports a multi-pass run.
type Result struct {
	Cover *setcover.Cover
	// Passes is the number of full passes over the stream.
	Passes int
	// Added[r] is how many sets round r added; Sampled[r] how many
	// elements round r's sample contained.
	Added, Sampled []int
	// Patched counts elements covered by the final backup patching (only
	// possible when MaxPasses truncated the run).
	Patched int
	// Space is the peak sketch space (state) and bookkeeping (aux).
	Space space.Usage
}

// Options configure Run.
type Options struct {
	// SampleBudget is B, the expected number of uncovered elements sampled
	// per round. Must be ≥ 1. B ≥ n degenerates to offline greedy in one
	// round.
	SampleBudget int
	// MaxPasses caps the number of passes (0 means until done, with a hard
	// safety cap of 64).
	MaxPasses int
}

// maxPassCap is the hard safety cap on passes.
const maxPassCap = 64

// Algorithm is the multi-pass state machine. Create with New; for each pass
// call BeginPass (false means the run is complete), feed every edge of the
// stream to ProcessEdge, and call EndPass; Finish assembles the result.
type Algorithm struct {
	space.Tracked

	n, m      int
	opt       Options
	maxPasses int
	rng       *xrand.Rand
	sink      *obs.Sink

	pos int64 // cumulative edges observed across passes

	covered   []bool
	backup    []setcover.SetID
	cert      []setcover.SetID
	sampled   []bool
	solSet    map[setcover.SetID]struct{}
	sol       []setcover.SetID
	uncovered int

	// Per-pass sketch, live between BeginPass and EndPass.
	inPass       bool
	proj         map[setcover.SetID][]setcover.Element
	projWords    int64
	sawUncovered bool
	nSampled     int

	res      Result
	done     bool // no further passes will run
	finished bool
}

// New returns a multi-pass state machine for an instance with n elements
// and m sets, drawing sampling coins from rng.
func New(n, m int, opt Options, rng *xrand.Rand) (*Algorithm, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("multipass: need n > 0 and m > 0")
	}
	if opt.SampleBudget < 1 {
		return nil, fmt.Errorf("multipass: SampleBudget must be ≥ 1, got %d", opt.SampleBudget)
	}
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 || maxPasses > maxPassCap {
		maxPasses = maxPassCap
	}
	a := &Algorithm{
		n:         n,
		m:         m,
		opt:       opt,
		maxPasses: maxPasses,
		rng:       rng,
		sink:      obs.SinkFor(obs.AlgoMultipass),
		covered:   make([]bool, n),
		backup:    make([]setcover.SetID, n),
		cert:      make([]setcover.SetID, n),
		sampled:   make([]bool, n),
		solSet:    make(map[setcover.SetID]struct{}),
		uncovered: n,
	}
	for u := range a.backup {
		a.backup[u] = setcover.NoSet
		a.cert[u] = setcover.NoSet
	}
	a.AuxMeter.Add(4 * int64(n)) // covered, backup, certificate, sample flags
	return a, nil
}

// BeginPass starts the next round: it draws the round's element sample and
// opens a fresh projection sketch. It returns false — drawing no coins —
// when the run is complete (everything covered, a pass saw no uncovered
// edge, or the pass cap is exhausted).
func (a *Algorithm) BeginPass() bool {
	if a.done || a.finished || a.inPass || a.res.Passes >= a.maxPasses || a.uncovered <= 0 {
		return false
	}
	a.res.Passes++

	// Round sample: every uncovered element independently with probability
	// B/|U|. (covered[] may lag behind the true coverage of sol — that only
	// makes the sample denser than needed.)
	p := 1.0
	if a.uncovered > a.opt.SampleBudget {
		p = float64(a.opt.SampleBudget) / float64(a.uncovered)
	}
	a.nSampled = 0
	coins := int64(0)
	for u := 0; u < a.n; u++ {
		if !a.covered[u] {
			coins++
		}
		a.sampled[u] = !a.covered[u] && a.rng.Coin(p)
		if a.sampled[u] {
			a.nSampled++
		}
	}
	a.res.Sampled = append(a.res.Sampled, a.nSampled)
	// Per-element sample coins are high-volume: aggregate, don't ring.
	a.sink.Count(obs.KindSampleKeep, int64(a.nSampled))
	a.sink.Count(obs.KindSampleDrop, coins-int64(a.nSampled))

	a.proj = make(map[setcover.SetID][]setcover.Element)
	a.projWords = 0
	a.sawUncovered = false
	a.inPass = true
	return true
}

// ProcessEdge observes one edge of the current pass.
func (a *Algorithm) ProcessEdge(e stream.Edge) error {
	if !a.inPass {
		return fmt.Errorf("multipass: ProcessEdge outside a pass")
	}
	a.pos++
	u, set := e.Elem, e.Set
	if u < 0 || int(u) >= a.n || set < 0 || int(set) >= a.m {
		return fmt.Errorf("multipass: edge %v out of range", e)
	}
	if a.backup[u] == setcover.NoSet {
		a.backup[u] = set
	}
	if _, in := a.solSet[set]; in {
		if a.cert[u] == setcover.NoSet {
			a.cert[u] = set
			if !a.covered[u] {
				a.covered[u] = true
				a.uncovered--
			}
		}
		return nil
	}
	if a.covered[u] {
		return nil
	}
	a.sawUncovered = true
	if !a.sampled[u] {
		return nil
	}
	if _, seen := a.proj[set]; !seen {
		a.projWords += space.MapEntryWords
		a.StateMeter.Add(space.MapEntryWords)
	}
	a.proj[set] = append(a.proj[set], u)
	a.projWords += space.SliceElemWords
	a.StateMeter.Add(space.SliceElemWords)
	return nil
}

// EndPass closes the current round: if the pass saw an uncovered edge, the
// round's sampled elements are covered offline by greedy and the chosen
// sets committed; otherwise the run is complete. Either way the round's
// sketch is released.
func (a *Algorithm) EndPass() {
	if !a.inPass {
		return
	}
	a.inPass = false
	if !a.sawUncovered {
		a.StateMeter.Sub(a.projWords)
		a.proj, a.projWords = nil, 0
		a.done = true
		return
	}
	added := coverSample(a.sink, a.pos, a.proj, a.covered, a.cert, a.solSet, &a.sol, &a.uncovered)
	a.res.Added = append(a.res.Added, added)
	a.StateMeter.Sub(a.projWords)
	a.sink.Emit(obs.KindEpoch, a.pos, int64(a.res.Passes), int64(added), int64(a.nSampled))
	a.proj, a.projWords = nil, 0
}

// Finish patches every element that never got a certificate (possible when
// MaxPasses ran out, or when a chosen set's remaining edges never
// re-appeared after the final pass) and assembles the result. Call it once,
// after BeginPass has returned false.
func (a *Algorithm) Finish() Result {
	if a.finished {
		panic("multipass: Finish called twice")
	}
	a.finished = true
	for u := 0; u < a.n; u++ {
		if a.cert[u] == setcover.NoSet && a.backup[u] != setcover.NoSet {
			a.cert[u] = a.backup[u]
			a.sol = append(a.sol, a.backup[u])
			a.res.Patched++
		}
	}
	a.sink.Count(obs.KindPatch, int64(a.res.Patched))
	a.res.Cover = setcover.NewCover(a.sol, a.cert)
	a.res.Space = a.Space()
	return a.res
}

// Passes returns how many passes have started so far.
func (a *Algorithm) Passes() int { return a.res.Passes }

// Uncovered returns the current uncovered-element count.
func (a *Algorithm) Uncovered() int { return a.uncovered }

// Run executes the multi-pass algorithm over a replayable stream of an
// instance with n elements and m sets, drawing sampling coins from rng.
func Run(n, m int, s stream.Stream, opt Options, rng *xrand.Rand) (Result, error) {
	a, err := New(n, m, opt, rng)
	if err != nil {
		return Result{}, err
	}
	for a.BeginPass() {
		if err := stream.Pass(s, a.ProcessEdge); err != nil {
			return Result{}, err
		}
		a.EndPass()
	}
	return a.Finish(), nil
}

// coverSample greedily covers every projected (sampled, uncovered) element
// and commits the chosen sets. Returns how many new sets were added.
func coverSample(sink *obs.Sink, pos int64, proj map[setcover.SetID][]setcover.Element,
	covered []bool, cert []setcover.SetID,
	solSet map[setcover.SetID]struct{}, sol *[]setcover.SetID, uncovered *int) int {

	if len(proj) == 0 {
		return 0
	}
	ids := make([]setcover.SetID, 0, len(proj))
	for s := range proj {
		ids = append(ids, s)
	}
	sortIDs(ids)

	added := 0
	for {
		best := setcover.NoSet
		bestGain := 0
		for _, s := range ids {
			gain := 0
			for _, u := range proj[s] {
				if !covered[u] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = s
			}
		}
		if best == setcover.NoSet {
			return added
		}
		solSet[best] = struct{}{}
		*sol = append(*sol, best)
		added++
		sink.Emit(obs.KindSetSelected, pos, int64(best), int64(len(*sol)), int64(bestGain))
		for _, u := range proj[best] {
			if !covered[u] {
				covered[u] = true
				cert[u] = best
				*uncovered--
			}
		}
	}
}

func sortIDs(s []setcover.SetID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
