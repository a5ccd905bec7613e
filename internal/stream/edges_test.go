package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"streamcover/internal/setcover"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// haveBlockKernel records whether this machine runs DecodeEdges' block
// kernel, before any test turns it off.
var haveBlockKernel = useBlockKernel

// kernelPaths are the DecodeEdges paths this machine can run: the scalar
// kernel, and the block kernel where there is one.
func kernelPaths() []bool {
	if haveBlockKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

// decodeEdgesVia runs DecodeEdges with the block kernel on or off.
func decodeEdgesVia(block bool, b []byte, pos int, dst []Edge, m, n uint64) (int, int) {
	defer func(was bool) { useBlockKernel = was }(useBlockKernel)
	useBlockKernel = block
	return DecodeEdges(b, pos, dst, m, n)
}

// decodeEdgesReference is DecodeEdges' contract one field at a time with
// binary.Uvarint: edges while a worst-case edge fits in what is left of b,
// up to one that is truncated, overflows or is out of range.
func decodeEdgesReference(b []byte, pos int, dst []Edge, m, n uint64) (int, int) {
	for i := range dst {
		if pos > len(b)-2*binary.MaxVarintLen64 {
			return i, pos
		}
		s, ws := binary.Uvarint(b[pos:])
		if ws <= 0 {
			return i, pos
		}
		u, wu := binary.Uvarint(b[pos+ws:])
		if wu <= 0 || s >= m || u >= n {
			return i, pos
		}
		dst[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
		pos += ws + wu
	}
	return len(dst), pos
}

// decodeAllVia decodes len(dst) edges from b[pos:] the way SCWIRE1's and
// SCSTRM1's callers do: the kernel takes what it can and a per-edge
// binary.Uvarint loop takes each edge it stops before. It returns the
// edges decoded, the position after them and the first rejection.
func decodeAllVia(kernel func([]byte, int, []Edge, uint64, uint64) (int, int), b []byte, pos int, dst []Edge, m, n uint64) (int, int, error) {
	for i := 0; i < len(dst); i++ {
		d, next := kernel(b, pos, dst[i:], m, n)
		if i, pos = i+d, next; i == len(dst) {
			break
		}
		s, ws := binary.Uvarint(b[pos:])
		if ws <= 0 {
			return i, pos, fmt.Errorf("edge %d set: uvarint %d", i, ws)
		}
		u, wu := binary.Uvarint(b[pos+ws:])
		if wu <= 0 {
			return i, pos, fmt.Errorf("edge %d elem: uvarint %d", i, wu)
		}
		if s >= m || u >= n {
			return i, pos, fmt.Errorf("edge %d (%d,%d) out of range", i, s, u)
		}
		dst[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
		pos += ws + wu
	}
	return len(dst), pos, nil
}

// edgeShapes are the bounds each input is decoded under: both sides of
// the 1/2-byte varint boundary, of the block kernel's 2^14 limit, and no
// limit at all.
var edgeShapes = []uint64{1, 127, 128, 1<<14 - 1, 1 << 14, 1<<14 + 1, math.MaxInt64}

// checkEdgeKernels decodes data from start into a dst of dstLen slots
// under every shape pair and (fm, fn), through the scalar kernel, the
// block kernel and decodeEdgesReference, and fails unless all agree on
// the edges, the count and the stop position, and, through decodeAllVia,
// on the first rejection.
func checkEdgeKernels(t *testing.T, data []byte, start, dstLen int, fm, fn uint64) {
	t.Helper()
	pos := start % (len(data) + 1)
	want := make([]Edge, dstLen)
	got := make([]Edge, dstLen)
	check := func(m, n uint64) {
		wk, wpos := decodeEdgesReference(data, pos, want, m, n)
		for _, block := range kernelPaths() {
			k, next := decodeEdgesVia(block, data, pos, got, m, n)
			if k != wk || next != wpos || !slices.Equal(got[:k], want[:wk]) {
				t.Fatalf("m=%d n=%d pos=%d len(dst)=%d block=%v: %d edges to %d, reference %d to %d",
					m, n, pos, dstLen, block, k, next, wk, wpos)
			}
		}
		wk, wpos, werr := decodeAllVia(func(_ []byte, p int, _ []Edge, _, _ uint64) (int, int) { return 0, p }, data, pos, want, m, n)
		for _, block := range kernelPaths() {
			kernel := func(b []byte, p int, dst []Edge, m, n uint64) (int, int) {
				return decodeEdgesVia(block, b, p, dst, m, n)
			}
			k, next, err := decodeAllVia(kernel, data, pos, got, m, n)
			if k != wk || next != wpos || fmt.Sprint(err) != fmt.Sprint(werr) || !slices.Equal(got[:k], want[:wk]) {
				t.Fatalf("m=%d n=%d pos=%d len(dst)=%d block=%v, caller loop: %d edges to %d (%v), reference %d to %d (%v)",
					m, n, pos, dstLen, block, k, next, err, wk, wpos, werr)
			}
		}
	}
	for _, m := range edgeShapes {
		for _, n := range edgeShapes {
			check(m, n)
		}
	}
	check(fm, fn)
}

// servebenchFrame is the varint body of a 1024-edge frame of servebench's
// session stream (planted n=300, m=4000, opt=8, random order, seed 1).
func servebenchFrame() []byte {
	const seed = 1
	inst := workload.Planted(xrand.New(seed), 300, 4000, 8, 0).Inst
	edges := Arrange(inst, Random, xrand.New(seed^0x5eed0f0dde55))
	return AppendEdges(nil, edges[:1024])
}

// wideFrame is the body of a 1024-edge frame with random set IDs below
// 2^20, most of which take 3-byte varints, over n=300.
func wideFrame() []byte {
	rng := xrand.New(7)
	edges := make([]Edge, 1024)
	for i := range edges {
		edges[i] = Edge{Set: setcover.SetID(rng.IntN(1 << 20)), Elem: setcover.Element(rng.IntN(300))}
	}
	return AppendEdges(nil, edges)
}

// badEdgeAt is 64 valid edges with one edge, (2^14-1, 1), in range only
// for m of 2^14 or more, starting at byte 32+off; its neighbours mix 1-
// and 2-byte varints.
func badEdgeAt(off int) []byte {
	var b []byte
	for len(b) < 32+off {
		if 32+off-len(b) == 3 {
			b = AppendEdges(b, []Edge{{Set: 200, Elem: 1}})
			continue
		}
		b = AppendEdges(b, []Edge{{Set: 1, Elem: 1}})
	}
	b = AppendEdges(b, []Edge{{Set: 1<<14 - 1, Elem: 1}})
	for i := 0; i < 64; i++ {
		b = AppendEdges(b, []Edge{{Set: setcover.SetID(i * 3), Elem: setcover.Element(i)}})
	}
	return b
}

// FuzzEdgeKernels holds DecodeEdges' block and scalar kernels to a
// per-field binary.Uvarint reference on arbitrary bytes, from a fuzzed
// start and into a fuzzed dst length, under the shapes of edgeShapes and
// one fuzzed pair (checkEdgeKernels).
func FuzzEdgeKernels(f *testing.F) {
	f.Add(servebenchFrame(), uint16(0), uint16(1024), uint64(4000), uint64(300))
	f.Add(wideFrame(), uint16(5), uint16(1024), uint64(40000), uint64(300))
	for off := 0; off < 16; off++ {
		f.Add(badEdgeAt(off), uint16(0), uint16(200), uint64(1<<14), uint64(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, start, dstLen uint16, fm, fn uint64) {
		checkEdgeKernels(t, data, int(start), int(dstLen%2048), fm, fn)
	})
}

// TestEdgeKernelsAgree runs checkEdgeKernels on random frames of IDs of
// 1 to 3 bytes, with 3-byte set IDs absent, sparse (below 18,000, as in
// BenchmarkFileReplay) or dense, on bit-flipped copies of them, on cuts of
// one frame at every length near its end, and on the fuzz seeds at every
// start and several dst lengths.
func TestEdgeKernelsAgree(t *testing.T) {
	rng := xrand.New(20261018)
	setMax := []uint64{1 << 7, 1 << 14, 18000, 1 << 21}
	for round := 0; round < 300; round++ {
		count := 1 + rng.IntN(300)
		smax, emax := setMax[rng.IntN(4)], setMax[rng.IntN(2)]
		var b []byte
		for range count {
			b = binary.AppendUvarint(b, rng.Uint64()%smax)
			b = binary.AppendUvarint(b, rng.Uint64()%emax)
		}
		if round%3 == 0 && len(b) > 0 {
			b[rng.IntN(len(b))] ^= 1 << rng.IntN(8)
		}
		if round%5 == 0 {
			b = binary.AppendUvarint(b, rng.Uint64()|1<<63) // a 10-byte varint
			b = append(b, 0xff)                             // and a truncated one
		}
		checkEdgeKernels(t, b, rng.IntN(4), 1+rng.IntN(2*count), rng.Uint64()%(1<<15), rng.Uint64()%(1<<15))
	}
	// IDs of 1 and 2 bytes in equal measure give a block every layout; cut
	// such a frame at each length near its end, so that blocks meet the
	// end of the kernel's window at every offset.
	var mixed []byte
	for range 64 {
		mixed = binary.AppendUvarint(mixed, rng.Uint64()%256)
	}
	for cut := len(mixed) - 48; cut <= len(mixed); cut++ {
		for start := 0; start < 4; start++ {
			checkEdgeKernels(t, mixed[:cut], start, 64, 1<<14, 1<<14)
		}
	}
	for _, b := range [][]byte{servebenchFrame(), wideFrame(), badEdgeAt(7)} {
		for start := 0; start < 16; start++ {
			for _, dstLen := range []int{0, 3, 4, 9, 1024} {
				checkEdgeKernels(t, b, start, dstLen, 4000, 300)
			}
		}
	}
}

// TestEdgeLayout pins the layout the block kernel stores: Edge is two
// int32s, Set then Elem.
func TestEdgeLayout(t *testing.T) {
	var e Edge
	if unsafe.Sizeof(e) != 8 || unsafe.Offsetof(e.Set) != 0 || unsafe.Offsetof(e.Elem) != 4 {
		t.Fatalf("Edge is %d bytes with Set at %d and Elem at %d; the block kernel stores 8 with Set at 0 and Elem at 4",
			unsafe.Sizeof(e), unsafe.Offsetof(e.Set), unsafe.Offsetof(e.Elem))
	}
}
