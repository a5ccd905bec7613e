package dense

// Word-parallel batch kernels.
//
// The streaming hot paths consume edges in batches (stream.BatchSize = 4096
// edges per dispatch). In the steady state most edges are no-ops: the
// element already has a first-set record and a covering witness, so the
// per-edge body only burns a branch chain deciding to do nothing. These
// kernels turn that decision into data parallelism: a batch is staged into
// per-element / per-set id blocks, and one pass over the blocks packs a
// per-edge predicate into mask words — 64 edges per word. The algorithm then
// iterates only the set bits (the edges that still have an effect), or skips
// a whole word — 64 edges — with a single compare when the mask is zero.
//
// Correctness contract: masks are computed against the state at stage time
// while the per-edge bodies mutate state as they run, so every predicate a
// kernel packs MUST be monotone — once an edge becomes a no-op it stays a
// no-op (coverage and first-set records only grow, solution sets are only
// added). Stale mask bits therefore over-approximate activity, never
// under-approximate it, and each active-edge body re-checks the exact
// condition before acting. This keeps the batched path observably identical
// to the per-edge path: same writes, same coin flips, same event stream.

// KernelBlockEdges is the staging capacity of the batch kernels, matching
// stream.BatchSize so a driver dispatch needs no re-chunking; longer slices
// handed directly to ProcessBatch are split into blocks of this size.
const KernelBlockEdges = 4096

// MaskWords returns the number of mask words covering k edge slots.
func MaskWords(k int) int { return (k + 63) / 64 }

// TailMask returns the valid-bit mask of the last mask word for k edge
// slots: low k%64 bits set, or all bits when k is a multiple of 64 (k > 0).
func TailMask(k int) uint64 {
	if r := uint(k) & 63; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// EqMask32 packs the predicate vals[ids[i]] == want: bit i%64 of
// out[i/64] is set iff it holds. Tail bits past len(ids) are zero. out must
// have at least MaskWords(len(ids)) words.
func EqMask32(vals []int32, ids []int32, want int32, out []uint64) {
	for w := 0; len(ids) > 0; w++ {
		blk := ids
		if len(blk) > 64 {
			blk = blk[:64]
		}
		var m uint64
		for i, id := range blk {
			var bit uint64
			if vals[id] == want {
				bit = 1
			}
			m |= bit << uint(i)
		}
		out[w] = m
		ids = ids[len(blk):]
	}
}

// BoolMask packs the predicate vals[ids[i]]: bit i%64 of out[i/64] is set
// iff vals[ids[i]] is true. Tail bits past len(ids) are zero.
func BoolMask(vals []bool, ids []int32, out []uint64) {
	for w := 0; len(ids) > 0; w++ {
		blk := ids
		if len(blk) > 64 {
			blk = blk[:64]
		}
		var m uint64
		for i, id := range blk {
			var bit uint64
			if vals[id] {
				bit = 1
			}
			m |= bit << uint(i)
		}
		out[w] = m
		ids = ids[len(blk):]
	}
}
