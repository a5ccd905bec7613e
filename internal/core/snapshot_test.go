package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/snap"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// TestSnapshotResumeEquivalence for Algorithm 1. The cut points are chosen
// to land inside epoch 0, inside the main epoch/subepoch ladder, and at the
// stream boundary, so every phase of the state machine round-trips.
func TestSnapshotResumeEquivalence(t *testing.T) {
	w := workload.Planted(xrand.New(31), 300, 2000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(9))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()
	N := len(edges)
	p := DefaultParams(n, m)

	ref := New(n, m, N, p, xrand.New(42))
	refRes := stream.RunEdges(ref, edges)

	for _, cut := range []int{0, N / 20, N / 3, N / 2, 3 * N / 4, N - 1, N} {
		a := New(n, m, N, p, xrand.New(42))
		a.ProcessBatch(edges[:cut])
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatalf("cut=%d: Snapshot: %v", cut, err)
		}
		b := New(n, m, N, p, xrand.New(1234))
		if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("cut=%d: Restore: %v", cut, err)
		}
		b.ProcessBatch(edges[cut:])
		got := b.Finish()
		if !refRes.Cover.Equal(got) {
			t.Fatalf("cut=%d: resumed cover differs from uninterrupted run", cut)
		}
		if gs := b.Space(); gs != refRes.Space {
			t.Fatalf("cut=%d: space %+v, want %+v", cut, gs, refRes.Space)
		}
	}
}

// TestRestorePreservesTrace: the diagnostic trace rides along in snapshots,
// so a resumed run reports the same epoch history as an uninterrupted one.
func TestRestorePreservesTrace(t *testing.T) {
	w := workload.Planted(xrand.New(33), 200, 1200, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(2))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()
	N := len(edges)
	p := DefaultParams(n, m)

	ref := New(n, m, N, p, xrand.New(7))
	stream.RunEdges(ref, edges)

	cut := N / 2
	a := New(n, m, N, p, xrand.New(7))
	a.ProcessBatch(edges[:cut])
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(n, m, N, p, xrand.New(8))
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	b.ProcessBatch(edges[cut:])
	b.Finish()

	want, err := json.Marshal(ref.Trace())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed trace differs:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRejectsScheduleMismatch: the resolved schedule string is the
// shape fingerprint; an instance with different parameters must refuse.
func TestRestoreRejectsScheduleMismatch(t *testing.T) {
	n, m, N := 100, 500, 2000
	a := New(n, m, N, DefaultParams(n, m), xrand.New(1))
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(n, m, N/2, DefaultParams(n, m), xrand.New(2))
	if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

var _ stream.Snapshotter = (*Algorithm)(nil)

// TestRestoreRejectsCursorOutsideSchedule: a snapshot whose A-phase cursor
// names no subepoch of the schedule — its CRC valid — is corrupt: the next
// ProcessBatch would index ℓ[ai] or the trace out of range, or silently
// count no batch.
func TestRestoreRejectsCursorOutsideSchedule(t *testing.T) {
	w := workload.Planted(xrand.New(31), 300, 2000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(9))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()
	N := len(edges)
	p := DefaultParams(n, m)
	for _, tc := range []struct {
		name   string
		tamper func(a *Algorithm)
	}{
		{"ai=0", func(a *Algorithm) { a.ai = 0 }},
		{"ai=K+1", func(a *Algorithm) { a.ai = a.r.K + 1 }},
		{"ej=0", func(a *Algorithm) { a.ej = 0 }},
		{"ej=E+3", func(a *Algorithm) { a.ej = a.r.E + 3 }},
		{"sub=-1", func(a *Algorithm) { a.sub = -1 }},
		{"sub=B", func(a *Algorithm) { a.sub = a.r.B }},
		{"subPos=-1", func(a *Algorithm) { a.subPos = -1 }},
		{"subPos=ell", func(a *Algorithm) { a.subPos = a.r.ell[a.ai] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(n, m, N, p, xrand.New(42))
			a.ProcessBatch(edges[:N/3])
			if a.phase != phaseAlgs {
				t.Fatalf("phase %d at edge %d, want the A-phase", a.phase, N/3)
			}
			tc.tamper(a)
			var buf bytes.Buffer
			if err := a.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			b := New(n, m, N, p, xrand.New(42))
			err := b.Restore(bytes.NewReader(buf.Bytes()))
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Restore = %v, want snap.ErrCorrupt", err)
			}
		})
	}
}

// TestRestoreRejectsWitnessBookkeeping: algBlock skips an element with a
// witness as marked, and remainderBlock skips a block once coveredCount
// reaches n, so a snapshot with an unmarked witnessed element, or a
// coveredCount that disagrees with the witnesses, is corrupt.
func TestRestoreRejectsWitnessBookkeeping(t *testing.T) {
	w := workload.Planted(xrand.New(31), 300, 2000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(9))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()
	N := len(edges)
	p := DefaultParams(n, m)
	for _, tc := range []struct {
		name   string
		tamper func(a *Algorithm)
	}{
		{"unmarked witness", func(a *Algorithm) {
			for u := range a.cert {
				if a.cert[u] == setcover.NoSet && !a.marked.Test(int32(u)) {
					a.cert[u] = 0
					a.coveredCount++
					return
				}
			}
			t.Fatal("no unmarked element to tamper with")
		}},
		{"coveredCount+1", func(a *Algorithm) { a.coveredCount++ }},
		{"coveredCount-1", func(a *Algorithm) { a.coveredCount-- }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(n, m, N, p, xrand.New(42))
			a.ProcessBatch(edges[:N/3])
			tc.tamper(a)
			var buf bytes.Buffer
			if err := a.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			b := New(n, m, N, p, xrand.New(42))
			if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Restore = %v, want snap.ErrCorrupt", err)
			}
		})
	}
}

// TestRestoreRejectsTraceOutsideSchedule: a special set indexes the trace's
// per-(algorithm, epoch) tables by the cursor, so a snapshot whose tables
// are not K×E is corrupt: the next special set would index out of range.
func TestRestoreRejectsTraceOutsideSchedule(t *testing.T) {
	w := workload.Planted(xrand.New(31), 300, 2000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(9))
	n, m := w.Inst.UniverseSize(), w.Inst.NumSets()
	N := len(edges)
	for _, tc := range []struct {
		name   string
		traced bool
		tamper func(tr *Trace)
	}{
		{"no Specials rows", false, func(tr *Trace) { tr.Specials = [][]int{} }},
		{"short Specials row", false, func(tr *Trace) { tr.Specials[0] = tr.Specials[0][:1] }},
		{"short AddedPerAlg", false, func(tr *Trace) { tr.AddedPerAlg = tr.AddedPerAlg[:1] }},
		{"no SpecialSets", true, func(tr *Trace) { tr.SpecialSets = nil }},
		{"short SpecialSets row", true, func(tr *Trace) { tr.SpecialSets[1] = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(n, m)
			p.TraceSpecialSets = tc.traced
			a := New(n, m, N, p, xrand.New(42))
			a.ProcessBatch(edges[:N/3])
			tc.tamper(&a.trace)
			var buf bytes.Buffer
			if err := a.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			b := New(n, m, N, p, xrand.New(42))
			if err := b.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Restore = %v, want snap.ErrCorrupt", err)
			}
		})
	}
}
