package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"streamcover/internal/setcover"
	"streamcover/internal/xrand"
)

func TestCodecRoundTrip(t *testing.T) {
	inst := fixture(t)
	edges := Arrange(inst, Random, xrand.New(1))
	hdr := Header{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}

	var buf bytes.Buffer
	if err := Encode(&buf, hdr, edges); err != nil {
		t.Fatal(err)
	}
	gotHdr, gotEdges, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header %+v want %+v", gotHdr, hdr)
	}
	if len(gotEdges) != len(edges) {
		t.Fatalf("len %d want %d", len(gotEdges), len(edges))
	}
	for i := range edges {
		if gotEdges[i] != edges[i] {
			t.Fatalf("edge %d: %v want %v (order must be preserved)", i, gotEdges[i], edges[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntN(40) + 1
		m := rng.IntN(20) + 1
		b := setcover.NewBuilder(n)
		b.EnsureSets(m)
		for i := 0; i < m; i++ {
			for _, u := range rng.SampleK32(n, rng.IntN(n+1)) {
				if err := b.AddEdge(setcover.SetID(i), u); err != nil {
					return false
				}
			}
		}
		inst, err := b.Build()
		if err != nil {
			return false
		}
		edges := Arrange(inst, Random, rng)
		hdr := Header{N: n, M: m, E: len(edges)}
		var buf bytes.Buffer
		if err := Encode(&buf, hdr, edges); err != nil {
			return false
		}
		gotHdr, gotEdges, err := Decode(&buf)
		if err != nil || gotHdr != hdr || len(gotEdges) != len(edges) {
			return false
		}
		for i := range edges {
			if gotEdges[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: 2, M: 2, E: 1}, nil); err == nil {
		t.Error("edge count mismatch accepted")
	}
	if err := Encode(&buf, Header{N: 0, M: 2, E: 0}, nil); err == nil {
		t.Error("zero universe accepted")
	}
	if err := Encode(&buf, Header{N: 2, M: 2, E: 1}, []Edge{{5, 0}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func encodeFixture(t *testing.T) []byte {
	t.Helper()
	inst := fixture(t)
	edges := EdgesOf(inst)
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}, edges); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeDetectsCorruption(t *testing.T) {
	good := encodeFixture(t)

	t.Run("bit flip", func(t *testing.T) {
		for pos := 0; pos < len(good); pos += 3 {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			if _, _, err := Decode(bytes.NewReader(bad)); err == nil {
				// A flip may coincidentally produce another valid file only if
				// both payload and CRC stay consistent, which a single bit
				// flip cannot do.
				t.Fatalf("bit flip at %d undetected", pos)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 5 {
			if _, _, err := Decode(bytes.NewReader(good[:cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: err=%v", cut, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err=%v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err=%v", err)
		}
	})
}

// shortClaimFile is a CRC-valid stream file whose header claims e edges
// over a 1×1 instance but whose payload ends with the header: 18 bytes at
// e = 2^24.
func shortClaimFile(e uint64) []byte {
	b := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(
		append([]byte(nil), magic[:]...), 1), 1), e)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeBoundsAllocationByInput decodes a short file whose header
// claims 2^24 edges: Decode must fail as a short file does, with the same
// error, without first allocating the 128 MiB edge slice the header asks
// for. Every edge takes at least two bytes, so the payload bounds the
// slice.
func TestDecodeBoundsAllocationByInput(t *testing.T) {
	data := shortClaimFile(1 << 24)
	if len(data) != 18 {
		t.Fatalf("file is %d bytes, want 18", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Decode allocated %d bytes for an 18-byte file, want under 1 MiB", got)
	}
	if want := "stream: corrupt stream file: edge 0 set: EOF"; err == nil || err.Error() != want {
		t.Fatalf("err=%v, want %q", err, want)
	}
}

// encodeReference is Encode's bytes built the obvious way: the magic, then
// one binary.AppendUvarint per header field and per edge field, then the
// CRC-32 of all of it.
func encodeReference(hdr Header, edges []Edge) []byte {
	b := append([]byte(nil), magic[:]...)
	for _, v := range []int{hdr.N, hdr.M, hdr.E} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.Set))
		b = binary.AppendUvarint(b, uint64(e.Elem))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestEncodeMatchesReference pins Encode's bytes to the per-field
// reference, for IDs of every varint width a non-negative int32 takes (1 to
// 5 bytes), shapes on both sides of 2^14, and lengths on both sides of the
// BatchSize chunks Encode writes in.
func TestEncodeMatchesReference(t *testing.T) {
	rng := xrand.New(20261017)
	shapes := []Header{
		{N: 300, M: 4000},              // 1- and 2-byte IDs
		{N: 1 << 14, M: 1<<14 + 1},     // both sides of 2^14
		{N: 1 << 21, M: 18000},         // up to 3-byte IDs
		{N: math.MaxInt32, M: 1 << 28}, // up to 5- and 4-byte IDs
	}
	for _, hdr := range shapes {
		// id draws below limit with a uniformly random varint width, so
		// narrow IDs are as common as wide ones.
		id := func(limit int) int {
			w := 1 + rng.IntN(5)
			if hi := 1 << (7 * w); hi < limit {
				limit = hi
			}
			return rng.IntN(limit)
		}
		for _, e := range []int{0, 1, BatchSize - 1, BatchSize, BatchSize + 1, 3*BatchSize + 7} {
			hdr.E = e
			edges := make([]Edge, e)
			for i := range edges {
				edges[i] = Edge{Set: setcover.SetID(id(hdr.M)), Elem: setcover.Element(id(hdr.N))}
			}
			var buf bytes.Buffer
			if err := Encode(&buf, hdr, edges); err != nil {
				t.Fatalf("%+v: %v", hdr, err)
			}
			if want := encodeReference(hdr, edges); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%+v: Encode wrote %d bytes, the reference %d, and they differ", hdr, buf.Len(), len(want))
			}
		}
	}
}

func TestInstanceFromEdges(t *testing.T) {
	inst := fixture(t)
	edges := Arrange(inst, Random, xrand.New(9))
	hdr := Header{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}
	got, err := InstanceFromEdges(hdr, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(inst) {
		t.Fatalf("reconstructed instance differs: %v vs %v", got.Stats(), inst.Stats())
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	inst := setcover.MustNewInstance(1000, func() [][]setcover.Element {
		rng := xrand.New(1)
		sets := make([][]setcover.Element, 500)
		for i := range sets {
			sets[i] = rng.SampleK32(1000, 20)
		}
		return sets
	}())
	edges := EdgesOf(inst)
	hdr := Header{N: 1000, M: 500, E: len(edges)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, hdr, edges); err != nil {
			b.Fatal(err)
		}
		if _, _, err := Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
