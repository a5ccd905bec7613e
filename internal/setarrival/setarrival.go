// Package setarrival implements one-pass baselines for the classical
// *set-arrival* streaming model, where entire sets arrive with all their
// elements (paper §1). The paper contrasts this model with edge arrival:
// here a Θ(√n)-approximation needs only Θ̃(n) space (Emek–Rosén [13],
// Chakrabarti–Wirth [10]), whereas edge arrival requires Ω̃(m) space at the
// same approximation factor (Theorem 2). The E-SETARR experiment
// demonstrates exactly this contrast.
package setarrival

import (
	"fmt"
	"math"

	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// Threshold is the classical one-pass set-arrival algorithm: an arriving
// set is added to the solution iff it covers at least √n yet-uncovered
// elements; at stream end, every still-uncovered element is patched with an
// arbitrary stored set containing it (one set per element).
//
// Approximation: the threshold stage adds ≤ n/√n = √n sets; at the end each
// remaining element lies only in sets that covered < √n new elements when
// they arrived, so an optimal cover's sets leave < OPT·√n of them, and
// patching adds at most that many. Total ≤ √n + √n·OPT = O(√n)·OPT.
//
// Space: a covered bitmap, one backup set id per element and the solution —
// O(n) words, with no dependence on m.
type Threshold struct {
	space.Tracked

	n         int
	threshold int
	covered   []bool
	backup    []setcover.SetID // first arrived set containing u
	cert      []setcover.SetID
	sol       []setcover.SetID
	patched   int
	arrived   int64     // sets observed, stamped on emitted events as Pos
	sink      *obs.Sink // decision-event sink; nil (inert) unless a hub is installed
}

// NewThreshold returns a threshold run for a universe of n elements. The
// threshold is ⌈√n⌉.
func NewThreshold(n int) *Threshold {
	if n <= 0 {
		panic("setarrival: need n > 0")
	}
	t := &Threshold{
		n:         n,
		threshold: int(math.Ceil(math.Sqrt(float64(n)))),
		covered:   make([]bool, n),
		backup:    make([]setcover.SetID, n),
		cert:      make([]setcover.SetID, n),
		sink:      obs.SinkFor(obs.AlgoSetArrival),
	}
	for u := range t.backup {
		t.backup[u] = setcover.NoSet
		t.cert[u] = setcover.NoSet
	}
	t.AuxMeter.Add(3 * int64(n))
	return t
}

// ProcessSet observes the next arriving set with its full element list.
func (t *Threshold) ProcessSet(id setcover.SetID, elems []setcover.Element) {
	t.arrived++
	newCount := 0
	for _, u := range elems {
		if t.backup[u] == setcover.NoSet {
			t.backup[u] = id
		}
		if !t.covered[u] {
			newCount++
		}
	}
	if newCount < t.threshold {
		return
	}
	t.sol = append(t.sol, id)
	t.StateMeter.Add(space.SliceElemWords)
	t.sink.Emit(obs.KindSetSelected, t.arrived, int64(id), int64(len(t.sol)), int64(newCount))
	for _, u := range elems {
		if !t.covered[u] {
			t.covered[u] = true
			t.cert[u] = id
		}
	}
}

// Finish patches the uncovered elements and returns the cover.
func (t *Threshold) Finish() *setcover.Cover {
	chosen := append([]setcover.SetID(nil), t.sol...)
	for u := range t.cert {
		if t.cert[u] == setcover.NoSet && t.backup[u] != setcover.NoSet {
			t.cert[u] = t.backup[u]
			chosen = append(chosen, t.backup[u])
			t.patched++
		}
	}
	t.sink.Count(obs.KindPatch, int64(t.patched))
	return setcover.NewCover(chosen, t.cert)
}

// SetObs replaces the decision-event sink (tests attach private hubs here;
// nil detaches).
func (t *Threshold) SetObs(s *obs.Sink) { t.sink = s }

// ObsAlgo implements obs.Identified.
func (t *Threshold) ObsAlgo() obs.AlgoID { return obs.AlgoSetArrival }

// Patched returns how many elements were patched, available after Finish.
func (t *Threshold) Patched() int { return t.patched }

// ThresholdValue returns the √n add threshold in use.
func (t *Threshold) ThresholdValue() int { return t.threshold }

// RunSetArrival drives a set-arrival algorithm over an edge-arrival stream
// that is in a set-contiguous order (stream.SetMajor or
// stream.SetMajorShuffled): it groups each maximal run of edges with the
// same set id into one set arrival. It returns an error if the stream is
// not set-contiguous (a set id recurring after a different set intervened),
// since silently feeding such a stream would not be the set-arrival model,
// and the stream's own error if its pass fails.
func RunSetArrival(t *Threshold, s stream.Stream) (*setcover.Cover, error) {
	if err := setPass(s, t.ProcessSet); err != nil {
		return nil, err
	}
	return t.Finish(), nil
}

// setPass drives one pass of a set-contiguous stream, handing each maximal
// run of edges with the same set id to process as one set arrival. The
// element slice is reused after process returns.
func setPass(s stream.Stream, process func(setcover.SetID, []setcover.Element)) error {
	seen := make(map[setcover.SetID]bool)
	cur := setcover.SetID(-1)
	var elems []setcover.Element
	err := stream.Pass(s, func(e stream.Edge) error {
		if e.Set != cur {
			if seen[e.Set] {
				return fmt.Errorf("setarrival: stream not set-contiguous: set %d recurs", e.Set)
			}
			if cur >= 0 {
				process(cur, elems)
				elems = elems[:0]
			}
			cur = e.Set
			seen[cur] = true
		}
		elems = append(elems, e.Elem)
		return nil
	})
	if err != nil {
		return err
	}
	if cur >= 0 {
		process(cur, elems)
	}
	return nil
}
