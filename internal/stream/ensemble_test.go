package stream

import (
	"testing"

	"streamcover/internal/setcover"
)

// constAlg returns a fixed-size valid-ish cover, for ensemble selection
// tests.
type constAlg struct {
	n    int
	sets []setcover.SetID
}

func (a *constAlg) Process(Edge) {}
func (a *constAlg) Finish() *setcover.Cover {
	cert := make([]setcover.SetID, a.n)
	for u := range cert {
		cert[u] = a.sets[0]
	}
	return setcover.NewCover(a.sets, cert)
}

func TestEnsemblePicksSmallest(t *testing.T) {
	e := NewEnsemble(
		&constAlg{n: 2, sets: []setcover.SetID{0, 1, 2}},
		&constAlg{n: 2, sets: []setcover.SetID{0}},
		&constAlg{n: 2, sets: []setcover.SetID{0, 1}},
	)
	if e.Copies() != 3 {
		t.Fatalf("Copies=%d", e.Copies())
	}
	cov := e.Finish()
	if cov.Size() != 1 {
		t.Fatalf("picked size %d, want 1", cov.Size())
	}
	if e.BestIndex != 1 {
		t.Fatalf("BestIndex=%d want 1", e.BestIndex)
	}
}

// releasable counts its Release calls.
type releasable struct {
	constAlg
	released int
}

func (a *releasable) Release() { a.released++ }

// TestEnsembleReleaseForwards: Release stops the workers and reaches every
// copy that implements Releaser, in both execution modes.
func TestEnsembleReleaseForwards(t *testing.T) {
	for _, par := range []int{1, 2} {
		copies := []*releasable{{constAlg: constAlg{n: 1, sets: []setcover.SetID{0}}}, {constAlg: constAlg{n: 1, sets: []setcover.SetID{0}}}}
		e := NewEnsemble(copies[0], copies[1], &constAlg{n: 1, sets: []setcover.SetID{0}})
		e.SetParallelism(par)
		e.ProcessBatch([]Edge{{Set: 0, Elem: 0}})
		e.Release()
		if e.workers != nil {
			t.Errorf("parallelism %d: workers still running after Release", par)
		}
		for i, c := range copies {
			if c.released != 1 {
				t.Errorf("parallelism %d: copy %d released %d times, want 1", par, i, c.released)
			}
		}
	}
}

func TestEnsembleTieBreaksEarliest(t *testing.T) {
	e := NewEnsemble(
		&constAlg{n: 1, sets: []setcover.SetID{4}},
		&constAlg{n: 1, sets: []setcover.SetID{9}},
	)
	e.Finish()
	if e.BestIndex != 0 {
		t.Fatalf("BestIndex=%d want 0", e.BestIndex)
	}
}

func TestEnsembleForwardsEdgesAndSpace(t *testing.T) {
	inst := setcover.MustNewInstance(3, [][]setcover.Element{{0, 1, 2}})
	a1 := newFirstSetAlg(3)
	a2 := newFirstSetAlg(3)
	e := NewEnsemble(a1, a2)
	res := RunEdges(e, EdgesOf(inst))
	if err := res.Cover.Verify(inst); err != nil {
		t.Fatal(err)
	}
	// Both copies saw every edge; space sums across copies.
	if res.Space.State != 2*3 || res.Space.Aux != 2*3 {
		t.Fatalf("space %v, want doubled", res.Space)
	}
}

func TestEnsemblePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEnsemble()
}
