package cli

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
)

func smallSweep() SweepOptions {
	return SweepOptions{
		Algos:  []string{"kk", "alg1"},
		Ns:     []int{100},
		Ms:     []int{500, 1000},
		Orders: []string{"random", "round-robin"},
		Opt:    5,
		Reps:   2,
		Seed:   1,
	}
}

func TestSweepTableOutput(t *testing.T) {
	var out bytes.Buffer
	if err := Sweep(smallSweep(), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// 2 algos × 1 n × 2 m × 2 orders = 8 body rows.
	for _, frag := range []string{"kk", "alg1", "random", "round-robin", "500", "1000"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("output missing %q:\n%s", frag, s)
		}
	}
	lines := strings.Count(strings.TrimRight(s, "\n"), "\n") + 1
	if lines != 3+8 { // title + header + separator + 8 cells
		t.Fatalf("got %d lines, want 11:\n%s", lines, s)
	}
}

func TestSweepCSVOutput(t *testing.T) {
	opt := smallSweep()
	opt.CSV = true
	var out bytes.Buffer
	if err := Sweep(opt, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+8 {
		t.Fatalf("%d CSV records, want 9", len(recs))
	}
	if recs[0][0] != "algo" || len(recs[1]) != 9 {
		t.Fatalf("header/arity wrong: %v", recs[:2])
	}
	if recs[0][7] != "greedy" {
		t.Fatalf("greedy reference column missing from header: %v", recs[0])
	}
}

func TestSweepDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Sweep(smallSweep(), &a); err != nil {
		t.Fatal(err)
	}
	if err := Sweep(smallSweep(), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("sweep not deterministic despite parallel cells:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestSweepErrors(t *testing.T) {
	opt := smallSweep()
	opt.Algos = nil
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("empty grid accepted")
	}
	opt = smallSweep()
	opt.Algos = []string{"quantum"}
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	opt = smallSweep()
	opt.Orders = []string{"sideways"}
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("unknown order accepted")
	}
	opt = smallSweep()
	opt.Opt = 1000 // exceeds n
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("opt > n accepted")
	}
	opt = smallSweep()
	opt.Reps = 0
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("reps=0 accepted")
	}
	opt = smallSweep()
	opt.Reps = -3
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("negative reps accepted")
	}
	opt = smallSweep()
	opt.Ns = []int{100, 0}
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("n=0 accepted")
	}
	opt = smallSweep()
	opt.Ms = []int{-5}
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("negative m accepted")
	}
	opt = smallSweep()
	opt.SolverWorkers = -1
	if err := Sweep(opt, &bytes.Buffer{}); err == nil {
		t.Error("negative solver workers accepted")
	}
}

func TestSweepDefaults(t *testing.T) {
	opt := smallSweep()
	opt.Opt = 0 // → 10
	var out bytes.Buffer
	if err := Sweep(opt, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "opt=10") {
		t.Fatalf("defaults not applied:\n%s", out.String())
	}
}

func TestSweepWorkersByteIdentical(t *testing.T) {
	// The scheduler determinism contract: every -workers value produces the
	// same bytes, in table and CSV form, because per-rep seeds derive from
	// grid coordinates alone. The grid spans every snapshottable streaming
	// algorithm plus the store-all baseline, and an adversarial order.
	for _, csv := range []bool{false, true} {
		base := smallSweep()
		base.Algos = []string{"kk", "alg1", "alg2", "es", "storeall"}
		base.Orders = []string{"random", "round-robin", "high-degree-last"}
		base.CSV = csv
		base.Workers = 1
		var want bytes.Buffer
		if err := Sweep(base, &want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4, 9} {
			opt := base
			opt.Workers = workers
			opt.SolverWorkers = workers // greedy column must be invariant too
			var got bytes.Buffer
			if err := Sweep(opt, &got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("csv=%v workers=%d output differs from workers=1:\n%s\nvs\n%s",
					csv, workers, got.String(), want.String())
			}
		}
	}
}

// BenchmarkSweepWorkers measures one small sweep grid at increasing worker
// counts. On multicore hardware the wall clock should shrink near-linearly
// until the core count; the output bytes are identical at every setting
// (TestSweepWorkersByteIdentical), so this benchmark is purely about
// scheduling.
func BenchmarkSweepWorkers(b *testing.B) {
	opt := SweepOptions{
		Algos:  []string{"kk", "alg1", "alg2"},
		Ns:     []int{200},
		Ms:     []int{2000, 4000},
		Orders: []string{"random", "round-robin"},
		Opt:    6,
		Reps:   2,
		Seed:   1,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opt
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				var out bytes.Buffer
				if err := Sweep(o, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
