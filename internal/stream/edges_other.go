//go:build !amd64

package stream

// useBlockKernel is always false here: the block kernel is amd64 only.
var useBlockKernel = false

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
