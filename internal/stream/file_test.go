package stream

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/xrand"
)

// randomEdges builds a deterministic pseudo-random edge list over n elements
// and m sets. It is NOT a valid set-cover stream (duplicates allowed) — fine
// for transport-equivalence tests, which only care about byte ordering.
func randomEdges(rng *xrand.Rand, n, m, count int) []Edge {
	edges := make([]Edge, count)
	for i := range edges {
		edges[i] = Edge{
			Set:  setcover.SetID(rng.IntN(m)),
			Elem: setcover.Element(rng.IntN(n)),
		}
	}
	return edges
}

// writeEdgesFile encodes edges under a header just wide enough for them (at
// least n by m) and returns the file's path.
func writeEdgesFile(t *testing.T, edges []Edge, n, m int) string {
	t.Helper()
	for _, e := range edges {
		n, m = max(n, int(e.Elem)+1), max(m, int(e.Set)+1)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: n, M: m, E: len(edges)}, edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edges.scs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testWindows are the read windows the File tests open at: the smallest
// decodable one, a size that is no multiple of common varint widths, one
// that forces a refill every few edges, and the default.
var testWindows = []int{minFileWindow, minFileWindow + 7, 64, fileBufSize}

func writeStreamFile(t *testing.T, dir string, mutate func([]byte) []byte) (string, Header, []Edge) {
	t.Helper()
	inst := fixture(t)
	edges := Arrange(inst, Random, xrand.New(1))
	hdr := Header{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}
	var buf bytes.Buffer
	if err := Encode(&buf, hdr, edges); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if mutate != nil {
		data = mutate(data)
	}
	path := filepath.Join(dir, "s.scs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, hdr, edges
}

func TestFileStreamMatchesDecode(t *testing.T) {
	path, hdr, edges := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if fs.Header() != hdr {
		t.Fatalf("header %+v want %+v", fs.Header(), hdr)
	}
	if fs.Len() != len(edges) {
		t.Fatalf("Len %d want %d", fs.Len(), len(edges))
	}
	for i, want := range edges {
		got, ok := fs.Next()
		if !ok || got != want {
			t.Fatalf("edge %d: got %v ok=%v want %v", i, got, ok, want)
		}
	}
	if _, ok := fs.Next(); ok {
		t.Fatal("Next past end returned ok")
	}

	// A stream several times the default window, with set IDs on both
	// sides of 2^14 (1- to 3-byte varints), so every window compacts and
	// refills mid-pass and edges straddle the refill point.
	big := randomEdges(xrand.New(12), 300, 40000, 300000)
	bigPath := writeEdgesFile(t, big, 300, 40000)
	data, err := os.ReadFile(bigPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 1<<20 {
		t.Fatalf("stream of %d bytes, want more than 1 MiB", len(data))
	}
	_, want, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range testWindows {
		fs, err := openFile(bigPath, window)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			b := fs.NextBatch(BatchSize)
			if len(b) == 0 {
				break
			}
			for _, e := range b {
				if e != want[got] {
					t.Fatalf("window %d: edge %d = %v, Decode %v", window, got, e, want[got])
				}
				got++
			}
		}
		if err := fs.Err(); err != nil || got != len(want) {
			t.Fatalf("window %d: %d of %d edges, Err=%v", window, got, len(want), err)
		}
		fs.Close()
	}
}

// TestFileMatchesDirectRandomized replays random streams at random windows
// with a random mix of Next and NextBatch calls, then drives an
// order-sensitive algorithm over a second pass; both must match the edge
// slice the file was written from.
func TestFileMatchesDirectRandomized(t *testing.T) {
	rng := xrand.New(0x5eed)
	for trial := 0; trial < 12; trial++ {
		n, m := 1+rng.IntN(40), 1+rng.IntN(30)
		edges := randomEdges(rng, n, m, rng.IntN(3000))
		window := minFileWindow + rng.IntN(700)
		fs, err := openFile(writeEdgesFile(t, edges, n, m), window)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("trial %d (window %d)", trial, window)

		var got []Edge
		for {
			if rng.Coin(0.3) {
				e, ok := fs.Next()
				if !ok {
					break
				}
				got = append(got, e)
			} else {
				b := fs.NextBatch(1 + rng.IntN(1400))
				if len(b) == 0 {
					break
				}
				got = append(got, b...)
			}
		}
		if len(got) != len(edges) {
			t.Fatalf("%s: got %d edges want %d", tag, len(got), len(edges))
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("%s: edge %d = %v want %v", tag, i, got[i], edges[i])
			}
		}
		if err := fs.Err(); err != nil {
			t.Fatalf("%s: Err=%v", tag, err)
		}

		want := RunEdges(newHashAlg(n), edges)
		res := Run(newHashAlg(n), fs)
		if res.Err != nil {
			t.Fatalf("%s: run err %v", tag, res.Err)
		}
		if res.Cover.Certificate[0] != want.Cover.Certificate[0] || res.Edges != want.Edges {
			t.Fatalf("%s: file run diverged from the slice run", tag)
		}
		fs.Close()
	}
}

// TestFileResetMidStream abandons passes at assorted depths — including 0
// (immediate Reset), mid-window, and exactly the full length — then
// requires a clean full replay.
func TestFileResetMidStream(t *testing.T) {
	edges := randomEdges(xrand.New(7), 20, 20, 5000)
	path := writeEdgesFile(t, edges, 20, 20)
	for _, window := range testWindows {
		fs, err := openFile(path, window)
		if err != nil {
			t.Fatal(err)
		}
		for _, stop := range []int{0, 1, 100, 256, 257, 2048, len(edges)} {
			for i := 0; i < stop; i++ {
				if _, ok := fs.Next(); !ok {
					t.Fatalf("window %d: stream ended at %d mid-prefix", window, i)
				}
			}
			fs.Reset()
		}
		got := 0
		for {
			b := fs.NextBatch(BatchSize)
			if len(b) == 0 {
				break
			}
			for _, e := range b {
				if e != edges[got] {
					t.Fatalf("window %d: edge %d mismatch after resets", window, got)
				}
				got++
			}
		}
		if got != len(edges) || fs.Err() != nil {
			t.Fatalf("window %d: replay after resets got %d edges, err=%v", window, got, fs.Err())
		}
		fs.Close()
	}
}

func TestFileStreamReset(t *testing.T) {
	path, _, edges := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Consume half, reset, verify full replay.
	for i := 0; i < len(edges)/2; i++ {
		fs.Next()
	}
	fs.Reset()
	count := 0
	for {
		e, ok := fs.Next()
		if !ok {
			break
		}
		if e != edges[count] {
			t.Fatalf("after Reset, edge %d = %v want %v", count, e, edges[count])
		}
		count++
	}
	if count != len(edges) {
		t.Fatalf("replayed %d edges, want %d", count, len(edges))
	}
}

func TestFileStreamDrivesAlgorithm(t *testing.T) {
	path, hdr, _ := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	res := Run(newFirstSetAlg(hdr.N), fs)
	if res.Edges != hdr.E {
		t.Fatalf("processed %d edges, want %d", res.Edges, hdr.E)
	}
}

// drainFile consumes the whole stream and returns its sticky error.
func drainFile(fs *File) error {
	for {
		if len(fs.NextBatch(BatchSize)) == 0 {
			return fs.Err()
		}
	}
}

func TestOpenFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()

	// Open folds the CRC check into the first replay pass, so payload
	// corruption surfaces as a sticky ErrCorrupt by the end of that pass.
	t.Run("bit flip", func(t *testing.T) {
		path, _, _ := writeStreamFile(t, dir, func(b []byte) []byte {
			b[len(b)/2] ^= 0x10
			return b
		})
		fs, err := OpenFile(path)
		if err != nil {
			t.Fatalf("lazy open rejected payload corruption at open: %v", err)
		}
		defer fs.Close()
		if err := drainFile(fs); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("after full pass, Err=%v want ErrCorrupt", err)
		}
		// The error is sticky until Reset, which re-arms the check.
		if err := fs.Err(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("sticky Err=%v", err)
		}
		fs.Reset()
		if err := fs.Err(); err != nil {
			t.Fatalf("Err after Reset = %v", err)
		}
		if err := drainFile(fs); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("second pass Err=%v want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path, _, _ := writeStreamFile(t, dir, func(b []byte) []byte { return b[:len(b)-6] })
		fs, err := OpenFile(path)
		if err != nil {
			t.Fatalf("lazy open rejected truncated body at open: %v", err)
		}
		defer fs.Close()
		if err := drainFile(fs); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("after full pass, Err=%v want ErrCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		path, _, _ := writeStreamFile(t, dir, func(b []byte) []byte {
			b[0] = 'Z'
			return b
		})
		if _, err := OpenFile(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err=%v", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := OpenFile(filepath.Join(dir, "nope.scs")); err == nil {
			t.Fatal("missing file accepted")
		}
	})
	t.Run("clean pass skips later re-verification", func(t *testing.T) {
		path, _, _ := writeStreamFile(t, dir, nil)
		fs, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		for pass := 0; pass < 2; pass++ {
			if err := drainFile(fs); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			fs.Reset()
		}
	})
}

func TestRunSurfacesLazyCorruption(t *testing.T) {
	// A Run over a lazily-opened corrupt file must report the failure on
	// Result.Err — the silent-truncation hazard the driver guards against.
	path, hdr, _ := writeStreamFile(t, t.TempDir(), func(b []byte) []byte {
		b[len(b)/2] ^= 0x10
		return b
	})
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	res := Run(newFirstSetAlg(hdr.N), fs)
	if !errors.Is(res.Err, ErrCorrupt) {
		t.Fatalf("Result.Err=%v want ErrCorrupt", res.Err)
	}
}

// TestFileCorruptionStickyAcrossPasses checks that a corrupt file's error
// stays on Err after a Run, that Reset clears it, and that the next pass,
// which never verified, detects the corruption again.
func TestFileCorruptionStickyAcrossPasses(t *testing.T) {
	path, hdr, _ := writeStreamFile(t, t.TempDir(), func(b []byte) []byte {
		b[len(b)/2] ^= 0x10
		return b
	})
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	res := Run(newHashAlg(hdr.N), fs)
	if !errors.Is(res.Err, ErrCorrupt) {
		t.Fatalf("Result.Err=%v want ErrCorrupt", res.Err)
	}
	if !errors.Is(fs.Err(), ErrCorrupt) {
		t.Fatalf("sticky Err=%v want ErrCorrupt", fs.Err())
	}
	fs.Reset()
	if fs.Err() != nil {
		t.Fatalf("Err after Reset = %v", fs.Err())
	}
	for len(fs.NextBatch(BatchSize)) > 0 {
	}
	if !errors.Is(fs.Err(), ErrCorrupt) {
		t.Fatalf("second pass Err=%v want ErrCorrupt", fs.Err())
	}
}

func TestFileStreamResetAfterClose(t *testing.T) {
	// Reset on a closed file degrades to an empty stream rather than
	// panicking mid-experiment (documented behaviour).
	path, _, _ := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	fs.Reset()
	if _, ok := fs.Next(); ok {
		t.Fatal("closed stream yielded an edge")
	}
}

func TestFileStreamEquivalentToSliceStream(t *testing.T) {
	// The same algorithm on the same stream via memory and via disk must
	// produce identical covers.
	path, hdr, edges := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	a := Run(newFirstSetAlg(hdr.N), fs)
	b := Run(newFirstSetAlg(hdr.N), NewSlice(edges))
	if a.Cover.Size() != b.Cover.Size() {
		t.Fatalf("file %d vs slice %d", a.Cover.Size(), b.Cover.Size())
	}
	for u := range a.Cover.Certificate {
		if a.Cover.Certificate[u] != b.Cover.Certificate[u] {
			t.Fatalf("certificates diverge at %d", u)
		}
	}
}
