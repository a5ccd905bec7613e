package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/xrand"
)

// refixTrailer recomputes a mutated stream file's CRC trailer so the
// corruption survives OpenFile's up-front checksum scan and exercises the
// lazy decode path instead.
func refixTrailer(data []byte) []byte {
	body := data[:len(data)-4]
	out := bytes.Clone(body)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(body))
	return append(out, trailer[:]...)
}

func TestOpenFileTruncatedHeaderIsTyped(t *testing.T) {
	dir := t.TempDir()
	// Build a valid file, then cut it inside the header varints: shorter than
	// magic+trailer, and right after the magic.
	path, _, _ := writeStreamFile(t, dir, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, 9, 11} {
		short := filepath.Join(dir, "short.scs")
		if err := os.WriteFile(short, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(short)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error not typed: %v", cut, err)
		}
		// ErrTruncated is a kind of ErrCorrupt, so ErrCorrupt always matches.
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: ErrTruncated must wrap ErrCorrupt: %v", cut, err)
		}
	}
}

func TestFileNextSticksOnCorruptPayload(t *testing.T) {
	// Corrupt an edge varint in the body but refit the trailer: OpenFile
	// passes, and the decode must stop at the bad edge with a typed sticky
	// error instead of handing the algorithm garbage.
	path, hdr, _ := writeStreamFile(t, t.TempDir(), func(data []byte) []byte {
		// The last byte before the trailer is the final edge's elem varint
		// terminator; setting the continuation bit makes the stream run off
		// its end.
		data[len(data)-5] |= 0x80
		return refixTrailer(data)
	})
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile should pass (checksum refitted): %v", err)
	}
	defer fs.Close()

	n := 0
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
		n++
	}
	if n >= hdr.E {
		t.Fatalf("decoded %d edges from a stream with a broken final varint", n)
	}
	// Depending on what the extended varint swallows, the decoder either runs
	// off the end (ErrTruncated) or decodes an out-of-range value
	// (ErrCorrupt); both are kinds of ErrCorrupt.
	if err := fs.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want sticky typed error, got %v", err)
	}
	// Sticky: further Next calls keep failing without advancing.
	if _, ok := fs.Next(); ok {
		t.Fatal("Next succeeded after sticky error")
	}
	// Reset clears the error and replays the good prefix.
	fs.Reset()
	if fs.Err() != nil {
		t.Fatalf("Reset did not clear sticky error: %v", fs.Err())
	}
	if _, ok := fs.Next(); !ok {
		t.Fatal("stream unreadable after Reset")
	}
}

func TestFileNextRejectsOutOfRangeEdge(t *testing.T) {
	// Encode a stream whose first edge is (set 0, elem 0) — a single-byte
	// varint — then overwrite that byte with the out-of-range set id M and
	// refit the trailer, so the corruption is only detectable semantically.
	dir := t.TempDir()
	inst := fixture(t)
	edges := EdgesOf(inst) // set-major: first edge is (0,0)
	hdr := Header{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}
	var buf bytes.Buffer
	if err := Encode(&buf, hdr, edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bad.scs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := fs.dataStart
	fs.Close()
	data := buf.Bytes()
	data[start] = byte(hdr.M) // set id M is out of range [0, M)
	data = refixTrailer(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, ok := fs.Next(); ok {
		t.Fatal("out-of-range edge decoded")
	}
	if err := fs.Err(); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
		t.Fatalf("want plain ErrCorrupt, got %v", err)
	}
}

func TestFileSkipTo(t *testing.T) {
	path, _, edges := writeStreamFile(t, t.TempDir(), nil)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	mid := len(edges) / 2
	if err := fs.SkipTo(mid); err != nil {
		t.Fatal(err)
	}
	got, ok := fs.Next()
	if !ok || got != edges[mid] {
		t.Fatalf("after SkipTo(%d): %v ok=%v, want %v", mid, got, ok, edges[mid])
	}
	// Skipping past the end is a typed resume error.
	fs.Reset()
	if err := fs.SkipTo(len(edges) + 1); !errors.Is(err, ErrShortStream) {
		t.Fatalf("want ErrShortStream, got %v", err)
	}
}

// TestFileSkipToSmallWindow skips over a 64-byte window, which refills every
// few dozen edges, to positions on both sides of a window edge and to the
// very end.
func TestFileSkipToSmallWindow(t *testing.T) {
	edges := randomEdges(xrand.New(11), 15, 15, 3000)
	fs, err := openFile(writeEdgesFile(t, edges, 15, 15), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, skip := range []int{0, 1, 127, 128, 1000, len(edges)} {
		fs.Reset()
		if err := fs.SkipTo(skip); err != nil {
			t.Fatalf("SkipTo(%d): %v", skip, err)
		}
		e, ok := fs.Next()
		if skip < len(edges) && (!ok || e != edges[skip]) {
			t.Fatalf("after SkipTo(%d) got %v ok=%v want %v", skip, e, ok, edges[skip])
		}
		if skip == len(edges) && ok {
			t.Fatalf("after SkipTo(%d) got %v past the end", skip, e)
		}
	}
}

func TestFileResumeViaSkipToMatchesSliceResume(t *testing.T) {
	// Resuming from an on-disk stream (Skipper fast-forward) must be
	// indistinguishable from resuming from an in-memory slice.
	path, _, edges := writeStreamFile(t, t.TempDir(), nil)
	from := len(edges) / 3

	mkResumed := func() *hashAlg {
		a := newHashAlg(5)
		for _, e := range edges[:from] {
			a.Process(e)
		}
		return a
	}
	want, err := RunCheckpointedFrom(mkResumed(), NewSlice(edges), CheckpointPolicy{}, from)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got, err := RunCheckpointedFrom(mkResumed(), fs, CheckpointPolicy{}, from)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Cover.Equal(got.Cover) || want.Edges != got.Edges {
		t.Fatal("file resume diverged from slice resume")
	}
}

// TestFileComposesWithCheckpointResume kills a checkpointed run over a File
// partway and resumes it on the same File: DrivePartial's batch clipping
// and the SkipTo fast-forward must together match an uninterrupted direct
// run edge for edge.
func TestFileComposesWithCheckpointResume(t *testing.T) {
	const n, m = 25, 25
	edges := randomEdges(xrand.New(99), n, m, 2500)
	want := RunEdges(newHashAlg(n), edges)

	fs, err := openFile(writeEdgesFile(t, edges, n, m), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	var lastPos int
	var lastCkpt []byte
	pol := CheckpointPolicy{
		Every: 37,
		Sink: func(pos int, ck []byte) error {
			lastPos = pos
			lastCkpt = append(lastCkpt[:0], ck...)
			return nil
		},
	}
	if _, err := DrivePartial(newHashAlg(n), fs, pol, len(edges)/2+5); err != nil {
		t.Fatal(err)
	}
	if lastCkpt == nil {
		t.Fatal("no checkpoint taken")
	}

	resumed := newHashAlg(n)
	pos, err := ReadCheckpoint(bytes.NewReader(lastCkpt), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if pos != lastPos {
		t.Fatalf("checkpoint pos %d want %d", pos, lastPos)
	}
	res, err := RunCheckpointedFrom(resumed, fs, pol, pos)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cover.Certificate[0] != want.Cover.Certificate[0] {
		t.Fatal("resumed file run diverged from direct run")
	}
}
