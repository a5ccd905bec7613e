package stream

import (
	"bytes"
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

// haveBlockKernel records whether this machine runs the block kernels of
// DecodeEdges and AppendEdges, before any test turns them off.
var haveBlockKernel = useBlockKernel

// kernelPaths are the DecodeEdges and AppendEdges paths this machine can
// run: the scalar kernel, and the block kernel where there is one.
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
// under every shape pair and (fm, fn) (checkEdgeKernelsUnder).
func checkEdgeKernels(t *testing.T, data []byte, start, dstLen int, fm, fn uint64) {
	t.Helper()
	for _, m := range edgeShapes {
		for _, n := range edgeShapes {
			checkEdgeKernelsUnder(t, data, start, dstLen, m, n)
		}
	}
	checkEdgeKernelsUnder(t, data, start, dstLen, fm, fn)
}

// checkEdgeKernelsUnder decodes data from start into a dst of dstLen
// slots under (m, n) through the scalar kernel, the block kernel and
// decodeEdgesReference, and fails unless all agree on the edges, the
// count and the stop position, and, through decodeAllVia, on the first
// rejection.
func checkEdgeKernelsUnder(t *testing.T, data []byte, start, dstLen int, m, n uint64) {
	t.Helper()
	pos := start % (len(data) + 1)
	want := make([]Edge, dstLen)
	got := make([]Edge, dstLen)
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

// servebenchEdges is servebench's session stream (planted n=300, m=4000,
// opt=8, random order, seed 1).
func servebenchEdges() []Edge {
	const seed = 1
	inst := workload.Planted(xrand.New(seed), 300, 4000, 8, 0).Inst
	return Arrange(inst, Random, xrand.New(seed^0x5eed0f0dde55))
}

// servebenchFrame is the varint body of a 1024-edge frame of servebench's
// session stream.
func servebenchFrame() []byte {
	return AppendEdges(nil, servebenchEdges()[:1024])
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

// seamM and seamN bound the sets and elements of the seam frames' filler
// edges: a 2-byte set of seamM, or element of seamN, is out of range.
const seamM, seamN = 1000, 300

// seamReach is how far past the start the seam cases place a stop: past
// the block kernel's first 64-byte refill, the fetched 64 bytes appended
// after it, and the 16-byte refills at the window's tail.
const seamReach = 160

// seamSlack is how far short of the frame's end the block kernel's window
// ends (blockSlack on amd64).
const seamSlack = 2*binary.MaxVarintLen64 - 6

// seamID is an ID below bound taking a 2-byte varint if wide, else 1.
func seamID(rng *xrand.Rand, bound int, wide bool) uint64 {
	if wide {
		return uint64(128 + rng.IntN(bound-128))
	}
	return uint64(rng.IntN(128))
}

// fillEdges appends filler edges to b until it is to bytes long and
// returns it with the count of edges appended: edges of 2 to 4 bytes,
// their IDs 1- or 2-byte varints below (seamM, seamN), of random sizes or,
// if tight, in runs of 4, 3, 3 and 2 bytes, which fill a block's 12 bytes
// and start its last edge at byte 10. A gap of one byte gets a lone
// 1-byte varint, a truncated edge.
func fillEdges(rng *xrand.Rand, b []byte, to int, tight bool) ([]byte, int) {
	edges := 0
	for ; len(b) < to; edges++ {
		gap, size := to-len(b), 2+rng.IntN(3)
		if tight {
			size = [4]int{4, 3, 3, 2}[edges%4]
		}
		switch {
		case gap == 1:
			return append(b, byte(rng.IntN(128))), edges
		case gap <= 4:
			size = gap
		case gap-size == 1:
			size--
		}
		b = appendSeamEdge(rng, b, size)
	}
	return b, edges
}

// appendSeamEdge appends a filler edge of size bytes, 2 to 4.
func appendSeamEdge(rng *xrand.Rand, b []byte, size int) []byte {
	wideSet := size == 4 || size == 3 && rng.IntN(2) == 0
	b = binary.AppendUvarint(b, seamID(rng, seamM, wideSet))
	return binary.AppendUvarint(b, seamID(rng, seamN, size == 4 || size == 3 && !wideSet))
}

// fillBlocks appends filler edges to b in blocks of four, each 8 to 12
// bytes long and so one step of the block kernel, until b is to bytes
// long; to-len(b) must be 0, 8 to 12, or 16 or more.
func fillBlocks(rng *xrand.Rand, b []byte, to int) []byte {
	for gap := to - len(b); gap > 0; gap = to - len(b) {
		size := 8 + rng.IntN(5)
		if gap <= 12 {
			size = gap
		} else {
			size = min(size, gap-8)
		}
		sizes := [4]int{2, 2, 2, 2}
		for extra := size - 8; extra > 0; {
			if e := rng.IntN(4); sizes[e] < 4 {
				sizes[e]++
				extra--
			}
		}
		for _, z := range sizes {
			b = appendSeamEdge(rng, b, z)
		}
	}
	return b
}

// A seamCase is a frame, decoded from start, in which the block kernel
// stops at a chosen byte offset from start under each of bounds, after
// the given count of edges.
type seamCase struct {
	data   []byte
	start  int
	bounds [][2]uint64
	before int
}

// seamCases places each of the block kernel's stops at every byte offset
// from 0 to seamReach past starts 0–3, behind start bytes whose
// continuation bits are all set: a 3-byte set or element varint, which
// the kernel leaves to the scalar one in range and which stops the caller
// out of range; a set of seamM or element of seamN, out of range; and the
// end of the kernel's window, after random or tight (fillEdges) edges, or
// 12 to 17 bytes after a step that ends its 12 bytes with a 2-byte edge.
// With dst lengths around the count before each stop, the stops fall on
// both sides of every refill of the kernel's continuation-bit mask.
func seamCases() []seamCase {
	rng := xrand.New(20261020)
	var cases []seamCase
	for start := 0; start < 4; start++ {
		prefix := bytes.Repeat([]byte{0xff}, start)
		frame := func(off int, stop []uint64) ([]byte, int) {
			b, before := fillEdges(rng, slices.Clone(prefix), start+off, false)
			for _, v := range stop {
				b = binary.AppendUvarint(b, v)
			}
			b, _ = fillEdges(rng, b, start+2*seamReach, false)
			return b, before
		}
		for off := 0; off <= seamReach; off++ {
			b, before := frame(off, []uint64{1<<14 + uint64(rng.IntN(1<<20)), 5})
			cases = append(cases, seamCase{b, start, [][2]uint64{{1 << 21, seamN}, {1 << 14, seamN}}, before})
			b, before = frame(off, []uint64{seamM, 5})
			cases = append(cases, seamCase{b, start, [][2]uint64{{seamM, seamN}}, before})
			if off > 0 {
				b, before = frame(off-1, []uint64{7, 1<<14 + uint64(rng.IntN(1<<20))})
				cases = append(cases, seamCase{b, start, [][2]uint64{{seamM, 1 << 21}, {seamM, 1 << 14}}, before})
				b, before = frame(off-1, []uint64{7, seamN})
				cases = append(cases, seamCase{b, start, [][2]uint64{{seamM, seamN}}, before})
			}
			window := func(b []byte) {
				before, _ := decodeEdgesReference(b, start, make([]Edge, len(b)), seamM, seamN)
				cases = append(cases, seamCase{b, start, [][2]uint64{{seamM, seamN}}, before})
			}
			for _, tight := range []bool{false, true} {
				b, _ := fillEdges(rng, slices.Clone(prefix), start+off+seamSlack, tight)
				window(b)
			}
			// A step at off that fills its 12 bytes and starts its last
			// edge at byte 10, with the window ending 12 to 17 bytes
			// later: the kernel must take the step only if it has 16
			// bytes, or take none of its edges past the scalar kernel's.
			if off == 0 || off >= 16 {
				for end := off + 12; end <= off+17; end++ {
					b := fillBlocks(rng, slices.Clone(prefix), start+off)
					for _, z := range []int{4, 3, 3, 2} {
						b = appendSeamEdge(rng, b, z)
					}
					b, _ = fillEdges(rng, b, start+end+seamSlack, false)
					window(b)
				}
			}
		}
	}
	return cases
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
	for i, c := range seamCases() {
		if i%4 == c.start {
			bound := c.bounds[i%len(c.bounds)]
			f.Add(c.data, uint16(c.start), uint16(max(0, c.before+i%5-2)), bound[0], bound[1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, start, dstLen uint16, fm, fn uint64) {
		checkEdgeKernels(t, data, int(start), int(dstLen%2048), fm, fn)
	})
}

// TestEdgeKernelsAgree runs checkEdgeKernels on random frames of IDs of
// 1 to 3 bytes, with 3-byte set IDs absent, sparse (below 18,000, as in
// BenchmarkFileReplay) or dense, on bit-flipped copies of them, on cuts of
// one frame at every length near its end, and on the fuzz seeds at every
// start and several dst lengths; and checkEdgeKernelsUnder on the seam
// cases under their bounds, into dst lengths from 4 below to 4 above the
// count before each stop.
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
	for _, c := range seamCases() {
		for dstLen := max(0, c.before-4); dstLen <= c.before+4; dstLen++ {
			for _, bound := range c.bounds {
				checkEdgeKernelsUnder(t, c.data, c.start, dstLen, bound[0], bound[1])
			}
		}
	}
}

// TestEdgeLayout pins the layout the block kernels load and store: Edge is
// two int32s, Set then Elem.
func TestEdgeLayout(t *testing.T) {
	var e Edge
	if unsafe.Sizeof(e) != 8 || unsafe.Offsetof(e.Set) != 0 || unsafe.Offsetof(e.Elem) != 4 {
		t.Fatalf("Edge is %d bytes with Set at %d and Elem at %d; the block kernels take 8 with Set at 0 and Elem at 4",
			unsafe.Sizeof(e), unsafe.Offsetof(e.Set), unsafe.Offsetof(e.Elem))
	}
}

// appendEdgesVia runs AppendEdges with the block kernel on or off.
func appendEdgesVia(block bool, b []byte, edges []Edge) []byte {
	defer func(was bool) { useBlockKernel = was }(useBlockKernel)
	useBlockKernel = block
	return AppendEdges(b, edges)
}

// appendEdgesReference is AppendEdges' contract one field at a time with
// binary.AppendUvarint, each int32 ID sign-extended to 64 bits.
func appendEdgesReference(b []byte, edges []Edge) []byte {
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.Set))
		b = binary.AppendUvarint(b, uint64(e.Elem))
	}
	return b
}

// checkEdgeEncoders appends edges behind prefix bytes, in a buffer with
// spare more bytes of capacity, through the block path, the scalar path
// and appendEdgesReference. It fails unless all three write the same
// bytes, prefix included, and unless DecodeEdges on the same path, with a
// per-edge binary.Uvarint loop for each edge it stops before, reads the
// edges back and ends at the last byte.
func checkEdgeEncoders(t *testing.T, edges []Edge, prefix, spare int) {
	t.Helper()
	buf := func() []byte {
		b := make([]byte, prefix, prefix+spare)
		for i := range b {
			b[i] = byte(0x80 | i) // continuation bits a misplaced edge would inherit
		}
		return b
	}
	want := appendEdgesReference(buf(), edges)
	got := make([]Edge, len(edges))
	for _, block := range kernelPaths() {
		b := appendEdgesVia(block, buf(), edges)
		if !bytes.Equal(b, want) {
			at := 0
			for at < min(len(b), len(want)) && b[at] == want[at] {
				at++
			}
			t.Fatalf("%d edges behind %d bytes, %d spare, block=%v: %d bytes differ from the reference's %d at byte %d",
				len(edges), prefix, spare, block, len(b), len(want), at)
		}
		pos := prefix
		for i := 0; i < len(got); i++ {
			d, next := decodeEdgesVia(block, b, pos, got[i:], math.MaxUint64, math.MaxUint64)
			if i, pos = i+d, next; i == len(got) {
				break
			}
			s, ws := binary.Uvarint(b[pos:])
			if ws <= 0 {
				t.Fatalf("block=%v: edge %d set: uvarint %d", block, i, ws)
			}
			u, wu := binary.Uvarint(b[pos+ws:])
			if wu <= 0 {
				t.Fatalf("block=%v: edge %d elem: uvarint %d", block, i, wu)
			}
			got[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
			pos += ws + wu
		}
		if pos != len(b) || !slices.Equal(got, edges) {
			t.Fatalf("block=%v: %d edges read back to byte %d of %d, differing from what was encoded",
				block, len(edges), pos, len(b))
		}
	}
}

// encoderIDs are IDs on every boundary the encoders branch or mask on:
// the 1/2-byte varint boundary, the block kernel's 2^14 limit, the int32
// extremes, and negative IDs, which sign-extend to 10-byte varints.
var encoderIDs = []int32{0, 1, 127, 128, 255, 1<<14 - 1, 1 << 14, 1 << 21, math.MaxInt32, -1, -128, math.MinInt32}

// encoderEdges is count edges whose IDs lie below 128 or below 2^14 in
// equal measure, with one in every wide of them, on average, replaced by
// an encoderIDs entry (none when wide is 0).
func encoderEdges(rng *xrand.Rand, count, wide int) []Edge {
	id := func() int32 {
		if wide > 0 && rng.IntN(wide) == 0 {
			return encoderIDs[rng.IntN(len(encoderIDs))]
		}
		return int32(rng.IntN(1 << (7 * (1 + rng.IntN(2)))))
	}
	edges := make([]Edge, count)
	for i := range edges {
		edges[i] = Edge{Set: setcover.SetID(id()), Elem: setcover.Element(id())}
	}
	return edges
}

// laneEdges is 12 edges of IDs below 2^14 with v at ID lane of the
// middle block of four: lane 2e is edge 4+e's set, lane 2e+1 its element.
func laneEdges(v int32, lane int) []Edge {
	edges := encoderEdges(xrand.New(uint64(lane)), 12, 0)
	if e := &edges[4+lane/2]; lane%2 == 0 {
		e.Set = setcover.SetID(v)
	} else {
		e.Elem = setcover.Element(v)
	}
	return edges
}

// edgeBytes is edges as FuzzEdgeEncoders reads them: little-endian int32
// pairs, set then element.
func edgeBytes(edges []Edge) []byte {
	var b []byte
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Set))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Elem))
	}
	return b
}

// FuzzEdgeEncoders holds AppendEdges' block and scalar kernels to a
// per-field binary.AppendUvarint reference, and DecodeEdges to reading
// their bytes back (checkEdgeEncoders), on edges built from arbitrary
// bytes as little-endian int32 pairs, behind a fuzzed prefix and with a
// fuzzed spare capacity, so the edges start at every alignment and
// slices.Grow both reallocates and does not.
func FuzzEdgeEncoders(f *testing.F) {
	stream := servebenchEdges()
	f.Add(edgeBytes(stream[:1024]), uint8(0), uint16(0))
	f.Add(edgeBytes(stream[:1027]), uint8(5), uint16(1027*2*binary.MaxVarintLen64))
	for _, v := range encoderIDs {
		for lane := 0; lane < 8; lane++ {
			f.Add(edgeBytes(laneEdges(v, lane)), uint8(lane), uint16(64*lane))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, prefix uint8, spare uint16) {
		edges := make([]Edge, len(data)/8)
		for i := range edges {
			edges[i] = Edge{
				Set:  setcover.SetID(int32(binary.LittleEndian.Uint32(data[8*i:]))),
				Elem: setcover.Element(int32(binary.LittleEndian.Uint32(data[8*i+4:]))),
			}
		}
		checkEdgeEncoders(t, edges, int(prefix), int(spare))
	})
}

// TestEdgeEncodersAgree runs checkEdgeEncoders on random edges with no,
// rare or frequent boundary IDs, on every encoderIDs entry in every lane
// of a block, on 0 to 12 edges behind every prefix up to 16 bytes, with
// spare capacity below, at and above the worst case, and on servebench's
// stream.
func TestEdgeEncodersAgree(t *testing.T) {
	rng := xrand.New(20261018)
	for round := 0; round < 300; round++ {
		count := rng.IntN(300)
		edges := encoderEdges(rng, count, []int{0, 64, 4, 1}[round%4])
		worst := 2 * binary.MaxVarintLen64 * count
		spare := []int{0, rng.IntN(worst + 1), worst, worst + 64}[rng.IntN(4)]
		checkEdgeEncoders(t, edges, rng.IntN(32), spare)
	}
	for _, v := range encoderIDs {
		for lane := 0; lane < 8; lane++ {
			for prefix := 0; prefix < 4; prefix++ {
				checkEdgeEncoders(t, laneEdges(v, lane), prefix, 0)
			}
		}
	}
	for count := 0; count <= 12; count++ {
		for prefix := 0; prefix < 16; prefix++ {
			edges := encoderEdges(rng, count, 0)
			checkEdgeEncoders(t, edges, prefix, 2*binary.MaxVarintLen64*count)
			checkEdgeEncoders(t, edges, prefix, 0)
		}
	}
	checkEdgeEncoders(t, servebenchEdges(), 3, 0)
}
