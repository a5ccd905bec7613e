//go:build !amd64

package stream

import (
	"encoding/binary"
	"slices"
)

// useBlockKernel is always false here: the block kernels are amd64 only.
var useBlockKernel = false

// AppendEdges appends edges to b in the layout SCSTRM1 and SCWIRE1 share,
// a uvarint set then a uvarint element per edge, and returns the extended
// slice; the bytes are binary.AppendUvarint's. Off amd64 it is the scalar
// kernel, appendEdgesScalar. It grows b once, to the worst case of two
// maximal varints per edge, and writes by index, so bytes past the
// returned length, up to that worst case, may be overwritten.
func AppendEdges(b []byte, edges []Edge) []byte {
	at := len(b)
	worst := 2 * binary.MaxVarintLen64 * len(edges)
	b = slices.Grow(b, worst)[:at+worst]
	return b[:appendEdgesScalar(b, at, edges)]
}

// DecodeEdges decodes edges in AppendEdges' layout from b[pos:] into dst
// and returns how many it decoded and the position after them. Off amd64
// it is the scalar kernel, decodeEdgesScalar, which says where it stops.
// Callers finish with their own per-edge loop, which takes the last few
// edges of b and the edge the kernel stopped before, and owns every
// rejection and its error string. As on amd64, callers read only
// dst[:count]: DecodeEdges may write dst slots past it, never past
// len(dst).
func DecodeEdges(b []byte, pos int, dst []Edge, m, n uint64) (int, int) {
	return decodeEdgesScalar(b, pos, dst, m, n)
}
