package streamcover

// Resume-equivalence extension of the golden fixtures: interrupting a run at
// an arbitrary stream position, serializing the algorithm with Snapshot,
// restoring it into a *differently seeded* fresh instance and finishing the
// stream must reproduce the exact golden fingerprint of the uninterrupted
// seed implementation — cover, certificate, edge count and space meters, all
// byte-identical. This is the end-to-end contract behind checkpoint/resume:
// a restored run is indistinguishable from one that never stopped.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/obs"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// goldenAlg builds the fixture algorithm with an explicit seed so the resume
// tests can prove the fresh instance's own coins are irrelevant after
// Restore.
func goldenAlg(alg string, n, m, streamLen int, seed uint64) Algorithm {
	switch alg {
	case "kk":
		return NewKK(n, m, NewRand(seed))
	case "alg1":
		return NewRandomOrder(n, m, streamLen, NewRand(seed))
	case "alg2":
		return NewAdversarial(n, m, 40, NewRand(seed))
	default:
		panic("unknown algorithm " + alg)
	}
}

// goldenResumeCase replays goldenCase's exact workload but interrupts at cut,
// snapshots, restores into a fresh instance seeded differently, and finishes.
func goldenResumeCase(t *testing.T, alg string, order Order, cut int) Result {
	t.Helper()
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, order, NewRand(23))
	if cut < 0 || cut > len(edges) {
		t.Fatalf("cut %d outside stream of %d edges", cut, len(edges))
	}

	first := goldenAlg(alg, n, m, len(edges), 42)
	first.(stream.BatchProcessor).ProcessBatch(edges[:cut])
	var buf bytes.Buffer
	if err := first.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatalf("snapshot at %d: %v", cut, err)
	}

	// Seed 987654321: Restore must overwrite every coin the constructor drew.
	resumed := goldenAlg(alg, n, m, len(edges), 987654321)
	if err := resumed.(Snapshotter).Restore(&buf); err != nil {
		t.Fatalf("restore at %d: %v", cut, err)
	}
	resumed.(stream.BatchProcessor).ProcessBatch(edges[cut:])

	res := Result{Cover: resumed.Finish(), Edges: len(edges)}
	res.Space = resumed.(space.Reporter).Space()
	return res
}

// TestGoldenResumeMatchesSeedImplementation asserts that snapshot/restore at
// several stream positions reproduces the recorded golden fingerprints — the
// same hashes TestGoldenOutputsMatchSeedImplementation holds the
// uninterrupted runs to.
func TestGoldenResumeMatchesSeedImplementation(t *testing.T) {
	cuts := []struct {
		name string
		frac float64
	}{
		{"early", 0.05},
		{"quarter", 0.25},
		{"half", 0.5},
		{"late", 0.9},
	}
	for _, alg := range []string{"kk", "alg1", "alg2"} {
		for _, order := range []Order{SetMajor, RoundRobin, RandomOrder} {
			key := fmt.Sprintf("%s/%s", alg, order)
			want, ok := goldenExpected[key]
			if !ok {
				t.Fatalf("no golden recorded for %s", key)
			}
			// Stream length depends only on the instance, not the order.
			edges := Arrange(PlantedWorkload(NewRand(11), 300, 4000, 8, 0).Inst, order, NewRand(23))
			for _, c := range cuts {
				t.Run(fmt.Sprintf("%s/%s", key, c.name), func(t *testing.T) {
					cut := int(c.frac * float64(len(edges)))
					got := goldenFingerprint(goldenResumeCase(t, alg, order, cut))
					if got != want {
						t.Fatalf("resumed fingerprint %#x at cut %d, want golden %#x — resume changed observable output",
							got, cut, want)
					}
				})
			}
		}
	}
}

// goldenTracedResumeCase mirrors goldenResumeCase but routes the snapshot
// through a full trace-stamped SCCKPT1 envelope — the exact bytes a detach
// writes to disk — instead of a bare Snapshot/Restore pair, and proves the
// trace comes back intact alongside the position.
func goldenTracedResumeCase(t *testing.T, alg string, order Order, cut int, trace TraceID) Result {
	t.Helper()
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, order, NewRand(23))

	first := goldenAlg(alg, n, m, len(edges), 42)
	first.(stream.BatchProcessor).ProcessBatch(edges[:cut])
	var buf bytes.Buffer
	if err := stream.WriteCheckpointTraced(&buf, cut, trace, first); err != nil {
		t.Fatalf("traced checkpoint at %d: %v", cut, err)
	}

	resumed := goldenAlg(alg, n, m, len(edges), 987654321)
	pos, gotTrace, err := stream.ReadCheckpointTraced(&buf, resumed)
	if err != nil {
		t.Fatalf("traced restore at %d: %v", cut, err)
	}
	if pos != cut {
		t.Fatalf("envelope position %d, wrote %d", pos, cut)
	}
	if gotTrace != trace {
		t.Fatalf("envelope trace %s, stamped %s", gotTrace, trace)
	}
	resumed.(stream.BatchProcessor).ProcessBatch(edges[cut:])

	res := Result{Cover: resumed.Finish(), Edges: len(edges)}
	res.Space = resumed.(space.Reporter).Space()
	return res
}

// TestGoldenResumeThroughTracedCheckpoint asserts that stamping a trace ID
// into the checkpoint envelope perturbs nothing: the golden fingerprints
// still come out byte-identical, and the trace round-trips.
func TestGoldenResumeThroughTracedCheckpoint(t *testing.T) {
	trace := obs.TraceID{0xa1, 0xb2, 0xc3, 0xd4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, alg := range []string{"kk", "alg1", "alg2"} {
		order := RandomOrder
		key := fmt.Sprintf("%s/%s", alg, order)
		want, ok := goldenExpected[key]
		if !ok {
			t.Fatalf("no golden recorded for %s", key)
		}
		edges := Arrange(PlantedWorkload(NewRand(11), 300, 4000, 8, 0).Inst, order, NewRand(23))
		t.Run(key, func(t *testing.T) {
			cut := len(edges) / 2
			got := goldenFingerprint(goldenTracedResumeCase(t, alg, order, cut, trace))
			if got != want {
				t.Fatalf("traced-resume fingerprint %#x at cut %d, want golden %#x — the trace section changed observable output",
					got, cut, want)
			}
		})
	}
}

// TestGoldenResumeThroughCheckpointFile is the on-disk kill-and-resume
// contract. A run over the encoded golden random-order stream writes a
// checkpoint file every E/10 edges and is killed at 3/5 of the stream with
// no finish, as a crash between checkpoints would leave it. A fresh
// instance with different coins restores the last durable checkpoint and
// finishes over the rest of the file: kk, alg1 and alg2 must hit their
// golden fingerprints, and es and a 4-copy KK ensemble, which have no
// recorded golden, must match their own uninterrupted run.
func TestGoldenResumeThroughCheckpointFile(t *testing.T) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(23))
	dir := t.TempDir()
	path := filepath.Join(dir, "golden-random.scstrm")
	var buf bytes.Buffer
	if err := EncodeStream(&buf, StreamHeader{N: n, M: m, E: len(edges)}, edges); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(t *testing.T) Stream {
		fs, err := OpenStreamFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	mk := func(alg string, seed uint64) Algorithm {
		switch alg {
		case "es":
			return NewElementSampling(n, m, 8, NewRand(seed))
		case "kk-ensemble":
			copies := make([]Algorithm, 4)
			for i := range copies {
				copies[i] = NewKK(n, m, NewRand(seed+uint64(i)))
			}
			return NewEnsemble(copies...)
		default:
			return goldenAlg(alg, n, m, len(edges), seed)
		}
	}

	every, kill := len(edges)/10, len(edges)*3/5
	for _, alg := range []string{"kk", "alg1", "alg2", "es", "kk-ensemble"} {
		t.Run(alg, func(t *testing.T) {
			want, ok := goldenExpected[fmt.Sprintf("%s/%s", alg, RandomOrder)]
			if !ok {
				ref := Run(mk(alg, 42), open(t))
				if ref.Err != nil {
					t.Fatalf("uninterrupted run: %v", ref.Err)
				}
				want = goldenFingerprint(ref)
			}

			ck := filepath.Join(dir, alg+".ckpt")
			pos, err := stream.DrivePartial(mk(alg, 42), open(t), CheckpointPolicy{Every: every, Path: ck}, kill)
			if err != nil {
				t.Fatalf("killed run: %v", err)
			}
			if pos != kill {
				t.Fatalf("killed run stopped at %d, want %d", pos, kill)
			}

			resumed := mk(alg, 987654321)
			from, err := ReadCheckpointFile(ck, resumed)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if durable := kill / every * every; from != durable {
				t.Fatalf("checkpoint at edge %d, want the last durable %d", from, durable)
			}
			res, err := RunCheckpointedFrom(resumed, open(t), CheckpointPolicy{}, from)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := goldenFingerprint(res); got != want {
				t.Fatalf("fingerprint %#x after resuming from the checkpoint file at %d, want %#x", got, from, want)
			}
		})
	}
}
