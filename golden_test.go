package streamcover

// Golden regression fixtures for the streaming hot path. The hashes below
// were captured from the seed (pre-batching, map-backed) implementations of
// the KK-algorithm, Algorithm 1 and Algorithm 2; the dense/batched rewrites
// must reproduce every byte of the same output — cover, certificate and
// space report — for the same seeds. A changed hash means the refactor
// changed an algorithm's output distribution, which the performance work is
// explicitly forbidden to do.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// goldenFingerprint folds a run's complete observable output into one hash:
// the chosen sets (sorted by construction), the full certificate, the edge
// count and both space meters.
func goldenFingerprint(res Result) uint64 {
	h := fnv.New64a()
	write := func(v int64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	write(int64(len(res.Cover.Sets)))
	for _, s := range res.Cover.Sets {
		write(int64(s))
	}
	write(int64(len(res.Cover.Certificate)))
	for _, s := range res.Cover.Certificate {
		write(int64(s))
	}
	write(int64(res.Edges))
	write(res.Space.State)
	write(res.Space.Aux)
	return h.Sum64()
}

// goldenCase builds the fixed workload/stream/algorithm combination for one
// fixture row. Everything is derived from explicit seeds.
func goldenCase(alg string, order Order) Result {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, order, NewRand(23))
	switch alg {
	case "kk":
		return RunEdges(NewKK(n, m, NewRand(42)), edges)
	case "alg1":
		return RunEdges(NewRandomOrder(n, m, len(edges), NewRand(42)), edges)
	case "alg2":
		return RunEdges(NewAdversarial(n, m, 40, NewRand(42)), edges)
	default:
		panic("unknown algorithm " + alg)
	}
}

// goldenExpected maps "alg/order" to the seed implementation's fingerprint.
var goldenExpected = map[string]uint64{
	"kk/set-major":     0x36e3bdce45306440,
	"kk/round-robin":   0x3a695dbe59ad609a,
	"kk/random":        0x2432c6067abe0138,
	"alg1/set-major":   0x637ec5cf8ee1dc53,
	"alg1/round-robin": 0x901a276b0a4160a8,
	"alg1/random":      0xffcfb936a0a26575,
	"alg2/set-major":   0x30bbd59ef6c14b6a,
	"alg2/round-robin": 0xa690910ce6a9008c,
	"alg2/random":      0xb8f586bb650a86f5,
}

func TestGoldenOutputsMatchSeedImplementation(t *testing.T) {
	for _, alg := range []string{"kk", "alg1", "alg2"} {
		for _, order := range []Order{SetMajor, RoundRobin, RandomOrder} {
			key := fmt.Sprintf("%s/%s", alg, order)
			t.Run(key, func(t *testing.T) {
				got := goldenFingerprint(goldenCase(alg, order))
				want, ok := goldenExpected[key]
				if !ok {
					t.Fatalf("no golden recorded for %s: got %#x (add it to goldenExpected)", key, got)
				}
				if got != want {
					t.Fatalf("fingerprint %#x, want seed implementation's %#x — the refactor changed observable output", got, want)
				}
			})
		}
	}
}

// TestGoldenOutputsThroughFile drives the identical golden cases through the
// on-disk ingestion path — encoded stream file, lazily CRC-verified File,
// windowed batch decode — and demands the exact same fingerprints. Any
// deviation from goldenExpected here is a codec or File bug, not a
// tolerance question.
func TestGoldenOutputsThroughFile(t *testing.T) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	dir := t.TempDir()
	for _, order := range []Order{SetMajor, RoundRobin, RandomOrder} {
		edges := Arrange(w.Inst, order, NewRand(23))
		var buf bytes.Buffer
		if err := EncodeStream(&buf, StreamHeader{N: n, M: m, E: len(edges)}, edges); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("golden-%s.scstrm", order))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{"kk", "alg1", "alg2"} {
			key := fmt.Sprintf("%s/%s", alg, order)
			t.Run(key, func(t *testing.T) {
				fs, err := OpenStreamFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				res := Run(goldenAlg(alg, n, m, len(edges), 42), fs)
				if res.Err != nil {
					t.Fatalf("file run failed: %v", res.Err)
				}
				if got, want := goldenFingerprint(res), goldenExpected[key]; got != want {
					t.Fatalf("file fingerprint %#x, want %#x — on-disk ingestion changed observable output", got, want)
				}
			})
		}
	}
}
