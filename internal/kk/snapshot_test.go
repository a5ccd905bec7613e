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

// TestReleasedRunFailsLoudly: once Release has handed the working arrays
// back, every use of the run panics or fails, and none writes into the
// arrays a new run now holds.
func TestReleasedRunFailsLoudly(t *testing.T) {
	w := workload.Planted(xrand.New(3), 60, 300, 6, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(4))
	a := New(60, 300, xrand.New(7))
	a.ProcessBatch(edges)
	a.Release()
	a.Release() // a second release is a no-op

	b := New(60, 300, xrand.New(7))
	var before bytes.Buffer
	if err := b.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a released run did not panic", what)
			}
		}()
		f()
	}
	mustPanic("ProcessBatch", func() { a.ProcessBatch(edges[:1]) })
	mustPanic("Process", func() { a.Process(edges[0]) })
	mustPanic("Finish", func() { a.Finish() })
	if err := a.Snapshot(&bytes.Buffer{}); err == nil {
		t.Error("Snapshot of a released run succeeded")
	}
	if err := a.Restore(bytes.NewReader(before.Bytes())); err == nil {
		t.Error("Restore into a released run succeeded")
	}
	var after bytes.Buffer
	if err := b.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("using a released run changed another run's state")
	}
	b.Finish()
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

// TestRestoredUnreachableWordsAgree restores degree words that no run
// reaches — an unsampled set one edge below the top of the ladder, a word
// that levels up to level 0, a low count above √n — and feeds the rest of
// the stream per edge and in frames. Neither may panic, the two must end
// in the same state and cover, and the level counts must be the degree
// words' histogram.
func TestRestoredUnreachableWordsAgree(t *testing.T) {
	w := workload.Planted(xrand.New(11), 200, 1500, 4, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(5))
	cut := len(edges) / 2
	a := New(200, 1500, xrand.New(42))
	a.ProcessBatch(edges[:cut])
	var unsampled []int32
	for _, e := range edges[cut:] {
		if !a.sol.Test(e.Set) && !slices.Contains(unsampled, e.Set) {
			unsampled = append(unsampled, e.Set)
		}
	}
	if len(unsampled) < 3 {
		t.Fatalf("only %d unsampled sets meet the rest of the stream", len(unsampled))
	}
	sqrtN := int32(a.sqrtN)
	a.deg[unsampled[0]] = int32(len(a.levels)-1)<<degLevelShift | (sqrtN - 1)
	a.deg[unsampled[1]] = -1<<degLevelShift | (sqrtN - 1)
	a.deg[unsampled[2]] = sqrtN + 3
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restore := func() *Algorithm {
		b := New(200, 1500, xrand.New(8))
		if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		return b
	}
	perEdge, batched := restore(), restore()
	for _, e := range edges[cut:] {
		perEdge.Process(e)
	}
	for lo := cut; lo < len(edges); lo += 1024 {
		batched.ProcessBatch(edges[lo:min(lo+1024, len(edges))])
	}
	var sp, sb bytes.Buffer
	if err := perEdge.Snapshot(&sp); err != nil {
		t.Fatal(err)
	}
	if err := batched.Snapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sp.Bytes(), sb.Bytes()) {
		t.Fatal("per-edge and batched runs from the restored state diverged")
	}
	top := len(perEdge.levels) - 1
	want := make([]int, top+1)
	for _, d := range perEdge.deg {
		want[min(uint32(d)>>degLevelShift, uint32(top))]++
	}
	for len(want) > 1 && want[len(want)-1] == 0 {
		want = want[:len(want)-1]
	}
	if got := perEdge.LevelCounts(); !slices.Equal(got, want) {
		t.Fatalf("level counts %v, degree words give %v", got, want)
	}
	if cp, cb := perEdge.Finish(), batched.Finish(); !cp.Equal(cb) {
		t.Fatal("per-edge and batched covers differ")
	}
}

var _ stream.Snapshotter = (*Algorithm)(nil)
var _ space.Reporter = (*Algorithm)(nil)
