package stream

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// useBlockKernel selects the SSSE3 block kernels of DecodeEdges and
// AppendEdges. It is set once, from CPUID: amd64's baseline promises only
// SSE2, and the kernels need SSSE3's PSHUFB.
var useBlockKernel = cpuHasSSSE3()

const (
	// blockShortRun is the shortest block-kernel run after which
	// DecodeEdges steps over the kernel's stop with one scalar edge, and
	// AppendEdges with one scalar block. A shorter run means stops are
	// dense, as where many IDs need 3-byte varints, and there a kernel call
	// per stop costs more than the kernel saves: the scalar kernel takes
	// the next blockShortRun edges, twice as many after each further short
	// run, until a long run resets it.
	blockShortRun = 8

	// blockSlack is how far short of len(b) the block kernel's window
	// ends. A block loads 16 bytes and starts its last edge at most 10
	// bytes in, 6 before the load's end, so the kernel takes no edge that
	// starts where decodeEdgesScalar would not: past
	// len(b) - 2*binary.MaxVarintLen64.
	blockSlack = 2*binary.MaxVarintLen64 - 6
)

// DecodeEdges decodes edges in AppendEdges' layout from b[pos:] into dst
// and returns how many it decoded and the position after them. It takes
// exactly the edges decodeEdgesScalar takes and stops where it stops:
// while a worst-case edge fits in what is left of b, and before an edge
// that is truncated, overflows, or has a set not below m or an element not
// below n. Callers finish with their own per-edge loop, which takes the
// last few edges of b and the edge the kernel stopped before, and owns
// every rejection and its error string. DecodeEdges may write dst slots
// past the count it returns, but never past len(dst); callers read only
// dst[:count] or overwrite the rest.
//
// With SSSE3 a block kernel runs first: each step places up to four edges
// whose varints take 1–2 bytes with one table lookup and one PSHUFB
// (DESIGN.md §4j). When it stops inside its window, before a wider varint
// or an out-of-range edge, the scalar kernel takes that one edge, or more
// after a short run (blockShortRun), and the block kernel re-enters. At
// the window's end the scalar kernel takes the rest.
func DecodeEdges(b []byte, pos int, dst []Edge, m, n uint64) (int, int) {
	if !useBlockKernel || len(b)-pos < blockSlack+16 {
		return decodeEdgesScalar(b, pos, dst, m, n)
	}
	bm, bn := uint16(min(m, 1<<14)), uint16(min(n, 1<<14))
	bound := [8]uint16{bm, bn, bm, bn, bm, bn, bm, bn}
	win := b[:len(b)-blockSlack]
	i, scalarRun := 0, blockShortRun
	for {
		k, next := decodeBlock(win, pos, dst[i:], &bound, &blockIndex, &blockShuffle)
		i, pos = i+k, next
		if pos+16 > len(win) || len(dst)-i < 4 {
			break
		}
		run := 1
		if k < blockShortRun {
			run, scalarRun = min(scalarRun, len(dst)-i), 2*scalarRun
		} else {
			scalarRun = blockShortRun
		}
		d, next := decodeEdgesScalar(b, pos, dst[i:i+run], m, n)
		i, pos = i+d, next
		if d < run {
			return i, pos
		}
	}
	d, next := decodeEdgesScalar(b, pos, dst[i:], m, n)
	return i + d, next
}

// AppendEdges appends edges to b in the layout SCSTRM1 and SCWIRE1 share,
// a uvarint set then a uvarint element per edge, and returns the extended
// slice; the bytes are binary.AppendUvarint's. It grows b once, to the
// worst case of two maximal varints per edge, and writes by index, so
// bytes past the returned length, up to that worst case, may be
// overwritten.
//
// With SSSE3 a block kernel runs first: each step encodes four edges whose
// IDs all lie in [0, 2^14) with one PSHUFB and one 16-byte store
// (DESIGN.md §4j). It stops at a block with any other ID; the scalar
// kernel, appendEdgesScalar, takes that block's four edges, or more after
// a short run (blockShortRun), and the block kernel re-enters. The scalar
// kernel takes the last 0–3 edges.
func AppendEdges(b []byte, edges []Edge) []byte {
	at := len(b)
	worst := 2 * binary.MaxVarintLen64 * len(edges)
	b = slices.Grow(b, worst)[:at+worst]
	i := 0
	if useBlockKernel {
		scalarRun := blockShortRun
		for {
			k, next := encodeBlock(b, at, edges[i:], &encodeShuffle, &encodeLength)
			i, at = i+k, next
			if len(edges)-i < 4 {
				break
			}
			run := 4
			if k < blockShortRun {
				run, scalarRun = min(scalarRun, len(edges)-i), 2*scalarRun
			} else {
				scalarRun = blockShortRun
			}
			at = appendEdgesScalar(b, at, edges[i:i+run])
			i += run
		}
	}
	return b[:appendEdgesScalar(b, at, edges[i:])]
}

// encodeBlock is AppendEdges' block kernel (edges_amd64.s). From
// edges[0] and b[at], each step loads four edges, packs their eight IDs
// into 16-bit lanes, forms each lane's 1–2-byte uvarint, compacts the
// lanes with the PSHUFB control shuffle[c] and stores 16 bytes, where c
// holds one bit per lane, set iff its ID needs a second byte; it advances
// by length[c] bytes. It returns how many edges it encoded and the
// position after them, and stops when fewer than 4 edges or 16 bytes of b
// are left, or before a block with an ID outside [0, 2^14).
//
//go:noescape
func encodeBlock(b []byte, at int, edges []Edge, shuffle *[256][16]byte, length *[256]uint8) (k, next int)

// encodeShuffle holds the block encoder's PSHUFB controls: for each c, the
// low byte of every lane in order, each followed by its high byte where c
// has the lane's bit. Bytes past them are zero.
var encodeShuffle [256][16]byte

// encodeLength is the bytes a block of four edges takes: 8 + popcount(c).
var encodeLength [256]uint8

// decodeBlock is the block kernel (edges_amd64.s). From b[pos:], each step
// loads 16 bytes, looks the continuation bits of the first 12 up in index,
// spreads the edges they hold into 16-bit lanes with shuffle's PSHUFB
// control, checks every lane below bound (m, n, m, n, ...; each at most
// 2^14) and stores four widened edges. It returns how many edges it
// decoded and the position after them, and stops when fewer than 16 bytes
// or 4 dst slots are left, when the block's first edge has a varint of 3
// or more bytes, or when one of its edges is out of range; it stores no
// edge before checking it.
//
//go:noescape
func decodeBlock(b []byte, pos int, dst []Edge, bound *[8]uint16, index *[1 << 12]uint32, shuffle *[blockLayouts][16]byte) (k, next int)

// cpuHasSSSE3 reports CPUID leaf 1's SSSE3 bit.
func cpuHasSSSE3() bool

// blockLayouts counts the edge layouts a block can hold: every sequence of
// 1–3 edges of 1–2-byte varints (4 + 16 + 64), and the 163 four-edge ones
// that fit in 12 bytes.
const blockLayouts = 247

// blockIndex maps the continuation bits of a block's first 12 bytes to the
// block kernel's step: byte 0 is the bytes its edges take, byte 1 how many
// edges (0 when the first has a varint of 3 or more bytes), and bytes 2–3
// the offset of their PSHUFB control in blockShuffle. Each step takes as
// many whole edges, up to four, as end within the 12 bytes.
var blockIndex [1 << 12]uint32

// blockShuffle holds one PSHUFB control per layout: lane 2e gets edge e's
// set varint, lane 2e+1 its element, each as its first byte then its
// second or zero. Lanes past the layout's edges are zero.
var blockShuffle [blockLayouts][16]byte

func init() {
	for c := range encodeShuffle {
		ctl := &encodeShuffle[c]
		at := 0
		for lane := 0; lane < 8; lane++ {
			ctl[at] = byte(2 * lane)
			at++
			if c>>lane&1 == 1 {
				ctl[at] = byte(2*lane + 1)
				at++
			}
		}
		for ; at < 16; at++ {
			ctl[at] = 0x80 // PSHUFB writes zero
		}
		encodeLength[c] = uint8(8 + bits.OnesCount8(uint8(c)))
	}

	ids := make(map[[16]byte]int, blockLayouts)
	for mask := range blockIndex {
		var ctl [16]byte
		for i := range ctl {
			ctl[i] = 0x80 // PSHUFB writes zero
		}
		at, used, edges := 0, 0, 0
	edge:
		for edges < 4 {
			for lane := 2 * edges; lane < 2*edges+2; lane++ {
				if at >= 12 {
					break edge
				}
				ctl[2*lane] = byte(at)
				if mask>>at&1 == 0 {
					at++
					continue
				}
				if at+1 >= 12 || mask>>(at+1)&1 == 1 {
					break edge
				}
				ctl[2*lane+1] = byte(at + 1)
				at += 2
			}
			edges, used = edges+1, at
		}
		if edges == 0 {
			continue
		}
		for i := 4 * edges; i < 16; i++ {
			ctl[i] = 0x80 // the lanes of a partly placed edge
		}
		id, ok := ids[ctl]
		if !ok {
			id = len(ids)
			ids[ctl] = id
			blockShuffle[id] = ctl
		}
		blockIndex[mask] = uint32(used) | uint32(edges)<<8 | uint32(16*id)<<16
	}
}
