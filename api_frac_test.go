package streamcover

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestPublicFractional(t *testing.T) {
	rng := NewRand(31)
	w := PlantedWorkload(rng.Split(), 80, 400, 4, 0)
	edges := Arrange(w.Inst, RandomOrder, rng.Split())

	sol, err := SolveFractional(80, 400, NewSliceStream(edges), FractionalOptions{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible(1e-9) {
		t.Fatal("infeasible fractional solution")
	}
	cov, err := RoundFractional(80, 400, NewSliceStream(edges), sol, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := cov.Verify(w.Inst); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSetArrivalMultiPass(t *testing.T) {
	rng := NewRand(32)
	w := PlantedWorkload(rng.Split(), 100, 500, 5, 0)
	edges := Arrange(w.Inst, SetMajorShuffled, rng.Split())
	alg := NewSetArrivalMultiPass(100, 3)
	cov, err := RunSetArrivalMultiPass(alg, NewSliceStream(edges))
	if err != nil {
		t.Fatal(err)
	}
	if err := cov.Verify(w.Inst); err != nil {
		t.Fatal(err)
	}
}

func TestPublicOpenStreamFile(t *testing.T) {
	rng := NewRand(33)
	w := PlantedWorkload(rng.Split(), 50, 200, 5, 0)
	edges := Arrange(w.Inst, RandomOrder, rng.Split())
	hdr := StreamHeader{N: 50, M: 200, E: len(edges)}

	path := filepath.Join(t.TempDir(), "s.scs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeStream(f, hdr, edges); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs, err := OpenStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	res := Run(NewKK(50, 200, rng.Split()), fs)
	if err := res.Cover.Verify(w.Inst); err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("file stream delivered %d edges, want %d", res.Edges, len(edges))
	}
}

// TestMultiPassBaselinesReportCorruptFile flips one element byte of a
// set-major stream file, so set contiguity still holds and only the CRC
// trailer sees the damage, and replays the file through every multi-pass
// entry point: each must report ErrStreamCorrupt instead of an answer
// built from the damaged edges. The undamaged file replays cleanly.
func TestMultiPassBaselinesReportCorruptFile(t *testing.T) {
	const n, m = 100, 400
	rng := NewRand(34)
	w := PlantedWorkload(rng.Split(), n, m, 5, 0)
	edges := Arrange(w.Inst, SetMajor, rng.Split())
	var buf bytes.Buffer
	if err := EncodeStream(&buf, StreamHeader{N: n, M: m, E: len(edges)}, edges); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// The byte before the 4-byte CRC trailer is the last edge's element, a
	// one-byte varint below n = 100: with its low bit flipped it stays one
	// byte and in range.
	corrupt := bytes.Clone(clean)
	corrupt[len(corrupt)-5] ^= 1
	sol, err := SolveFractional(n, m, NewSliceStream(edges), FractionalOptions{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	runs := []struct {
		name string
		run  func(s Stream) error
	}{
		{"RunMultiPass", func(s Stream) error {
			_, err := RunMultiPass(n, m, s, MultiPassOptions{SampleBudget: 20}, NewRand(1))
			return err
		}},
		{"SolveFractional", func(s Stream) error {
			_, err := SolveFractional(n, m, s, FractionalOptions{Delta: 0.5})
			return err
		}},
		{"RoundFractional", func(s Stream) error {
			_, err := RoundFractional(n, m, s, sol, NewRand(1))
			return err
		}},
		{"FractionalDualBound", func(s Stream) error {
			_, err := FractionalDualBound(n, m, s, sol)
			return err
		}},
		{"RunSetArrival", func(s Stream) error {
			_, err := RunSetArrival(NewSetArrivalThreshold(n), s)
			return err
		}},
		{"RunSetArrivalMultiPass", func(s Stream) error {
			_, err := RunSetArrivalMultiPass(NewSetArrivalMultiPass(n, 3), s)
			return err
		}},
	}
	replay := func(t *testing.T, data []byte, run func(Stream) error) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "s.scs")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenStreamFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		return run(fs)
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if err := replay(t, clean, r.run); err != nil {
				t.Fatalf("clean file: %v", err)
			}
			if err := replay(t, corrupt, r.run); !errors.Is(err, ErrStreamCorrupt) {
				t.Fatalf("corrupt file: err=%v, want ErrStreamCorrupt", err)
			}
		})
	}
}
