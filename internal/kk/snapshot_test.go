package kk

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"streamcover/internal/snap"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// TestSnapshotResumeEquivalence is the package's resume contract: snapshot
// mid-stream, restore into a fresh (differently seeded) instance, finish the
// stream, and the state, cover, certificate, space report and level counts
// must be byte-identical to the uninterrupted per-edge run. The cuts
// include f-1, f and f+1, where edge f's coin samples the first set, so a
// resume starts right before, at and right after the hand-off from the cold
// schedule; the resumed half arrives in 1024-edge frames, as a served
// session's does.
func TestSnapshotResumeEquivalence(t *testing.T) {
	w := workload.Planted(xrand.New(11), 200, 1500, 4, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(5))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()

	ref := New(n, m, xrand.New(42))
	f := 0
	for i, e := range edges {
		ref.Process(e)
		if f == 0 && ref.SampledSets() > 0 {
			f = i + 1
		}
	}
	if f < 2 || f >= len(edges) {
		t.Fatalf("first sample at edge %d of %d: the cuts around it need room on both sides", f, len(edges))
	}
	var refState bytes.Buffer
	if err := ref.Snapshot(&refState); err != nil {
		t.Fatal(err)
	}
	refCover := ref.Finish()

	const frame = 1024
	for _, cut := range []int{0, 1, f - 1, f, f + 1, len(edges) / 3, len(edges) / 2, len(edges) - 1, len(edges)} {
		a := New(n, m, xrand.New(42))
		a.ProcessBatch(edges[:cut])
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatalf("cut=%d: Snapshot: %v", cut, err)
		}
		b := New(n, m, xrand.New(999)) // seed must not matter after Restore
		if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("cut=%d: Restore: %v", cut, err)
		}
		for lo := cut; lo < len(edges); lo += frame {
			b.ProcessBatch(edges[lo:min(lo+frame, len(edges))])
		}
		var state bytes.Buffer
		if err := b.Snapshot(&state); err != nil {
			t.Fatalf("cut=%d: Snapshot: %v", cut, err)
		}
		if !bytes.Equal(state.Bytes(), refState.Bytes()) {
			t.Fatalf("cut=%d: resumed state differs from the uninterrupted run's", cut)
		}
		got := b.Finish()
		if !refCover.Equal(got) {
			t.Fatalf("cut=%d: resumed cover differs from uninterrupted run", cut)
		}
		if gs, ws := b.Space(), ref.Space(); gs != ws {
			t.Fatalf("cut=%d: space %+v, want %+v", cut, gs, ws)
		}
		if gl, wl := b.LevelCounts(), ref.LevelCounts(); !slices.Equal(gl, wl) {
			t.Fatalf("cut=%d: level counts %v, want %v", cut, gl, wl)
		}
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	a := New(50, 100, xrand.New(1))
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(50, 101, xrand.New(1))
	if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

func TestSnapshotAfterFinishFails(t *testing.T) {
	a := New(10, 10, xrand.New(1))
	a.Finish()
	if err := a.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("Snapshot after Finish must fail (scratch is back in the pool)")
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	w := workload.Planted(xrand.New(3), 60, 300, 6, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(4))
	a := New(60, 300, xrand.New(7))
	a.ProcessBatch(edges[:len(edges)/2])
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x10
	b := New(60, 300, xrand.New(8))
	if err := b.Restore(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

// TestRestoreRejectsInconsistentCounters: processBlock branches on the
// restored counters (the cold gate, the saturation skip, the mask gate), so
// a checksum-valid snapshot whose counters disagree with its sol bits or
// covered flags must be refused rather than make ProcessBatch diverge from
// Process.
func TestRestoreRejectsInconsistentCounters(t *testing.T) {
	w := workload.Planted(xrand.New(11), 200, 1500, 4, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(5))
	for _, tc := range []struct {
		name    string
		corrupt func(a *Algorithm)
	}{
		{"coveredCount=n", func(a *Algorithm) { a.coveredCount = a.n }},
		{"coveredCount-1", func(a *Algorithm) { a.coveredCount-- }},
		{"solCount=0", func(a *Algorithm) { a.solCount = 0 }},
		{"covered without a sampled witness", func(a *Algorithm) {
			a.sol.Reset()
			a.solCount = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(200, 1500, xrand.New(42))
			a.ProcessBatch(edges[:len(edges)/2])
			if a.SampledSets() == 0 || a.CoveredCount() == 0 {
				t.Fatal("the cut must come after the first sample")
			}
			tc.corrupt(a)
			var buf bytes.Buffer
			if err := a.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			b := New(200, 1500, xrand.New(8))
			if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

var _ stream.Snapshotter = (*Algorithm)(nil)
var _ space.Reporter = (*Algorithm)(nil)
