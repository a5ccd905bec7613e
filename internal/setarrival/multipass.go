package setarrival

import (
	"fmt"
	"math"

	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// MultiPassThreshold is the p-pass set-arrival algorithm of Chakrabarti and
// Wirth (SODA'16, [10] in the paper): pass j admits any arriving set that
// covers at least θ_j = n^{(p+1-j)/(p+1)} yet-uncovered elements, and after
// the p-th pass (θ_p = n^{1/(p+1)}) every remaining element is patched with
// one stored set. The result is an O(p·n^{1/(p+1)})-approximation with O(n)
// words — the semi-streaming pass/approximation trade-off the paper's §1.3
// recounts (and which [10] prove optimal for constant p).
//
// p = 1 coincides with the single-pass √n-threshold algorithm (Threshold).
type MultiPassThreshold struct {
	space.Tracked

	n, passes  int
	thresholds []int
	pass       int // current pass (0-based)

	covered []bool
	backup  []setcover.SetID
	cert    []setcover.SetID
	sol     []setcover.SetID
	patched int
}

// NewMultiPassThreshold returns a p-pass run over a universe of n elements.
// It panics unless n > 0 and p ≥ 1.
func NewMultiPassThreshold(n, p int) *MultiPassThreshold {
	if n <= 0 || p < 1 {
		panic("setarrival: NewMultiPassThreshold needs n > 0 and p ≥ 1")
	}
	t := &MultiPassThreshold{
		n:       n,
		passes:  p,
		covered: make([]bool, n),
		backup:  make([]setcover.SetID, n),
		cert:    make([]setcover.SetID, n),
	}
	for u := range t.backup {
		t.backup[u] = setcover.NoSet
		t.cert[u] = setcover.NoSet
	}
	t.AuxMeter.Add(3 * int64(n))
	t.thresholds = make([]int, p)
	for j := 1; j <= p; j++ {
		exp := float64(p+1-j) / float64(p+1)
		th := int(math.Ceil(math.Pow(float64(n), exp)))
		if th < 1 {
			th = 1
		}
		t.thresholds[j-1] = th
	}
	return t
}

// Thresholds returns θ_1..θ_p.
func (t *MultiPassThreshold) Thresholds() []int {
	return append([]int(nil), t.thresholds...)
}

// ProcessSet observes the next arriving set of the current pass.
func (t *MultiPassThreshold) ProcessSet(id setcover.SetID, elems []setcover.Element) {
	newCount := 0
	for _, u := range elems {
		if t.backup[u] == setcover.NoSet {
			t.backup[u] = id
		}
		if !t.covered[u] {
			newCount++
		}
	}
	if newCount < t.thresholds[t.pass] {
		return
	}
	t.sol = append(t.sol, id)
	t.StateMeter.Add(space.SliceElemWords)
	for _, u := range elems {
		if !t.covered[u] {
			t.covered[u] = true
			t.cert[u] = id
		}
	}
}

// NextPass advances to the following pass. It returns an error if all p
// passes have already run.
func (t *MultiPassThreshold) NextPass() error {
	if t.pass+1 >= t.passes {
		return fmt.Errorf("setarrival: all %d passes consumed", t.passes)
	}
	t.pass++
	return nil
}

// Finish patches the uncovered elements and returns the cover.
func (t *MultiPassThreshold) Finish() *setcover.Cover {
	chosen := append([]setcover.SetID(nil), t.sol...)
	for u := range t.cert {
		if t.cert[u] == setcover.NoSet && t.backup[u] != setcover.NoSet {
			t.cert[u] = t.backup[u]
			chosen = append(chosen, t.backup[u])
			t.patched++
		}
	}
	return setcover.NewCover(chosen, t.cert)
}

// Patched returns how many elements were patched, available after Finish.
func (t *MultiPassThreshold) Patched() int { return t.patched }

// RunMultiPassSetArrival drives all p passes of t over a set-contiguous
// edge-arrival stream (see RunSetArrival for the contiguity requirement).
func RunMultiPassSetArrival(t *MultiPassThreshold, s stream.Stream) (*setcover.Cover, error) {
	for {
		if err := setPass(s, t.ProcessSet); err != nil {
			return nil, err
		}
		if t.NextPass() != nil {
			break // that was the final pass
		}
	}
	return t.Finish(), nil
}
