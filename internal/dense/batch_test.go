package dense

import (
	"math/rand/v2"
	"testing"
)

func maskBit(out []uint64, i int) bool { return out[i/64]&(1<<(uint(i)%64)) != 0 }

func TestMaskWordsAndTailMask(t *testing.T) {
	cases := []struct {
		k     int
		words int
		tail  uint64
	}{
		{1, 1, 1},
		{63, 1, 1<<63 - 1},
		{64, 1, ^uint64(0)},
		{65, 2, 1},
		{4096, 64, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := MaskWords(tc.k); got != tc.words {
			t.Errorf("MaskWords(%d) = %d, want %d", tc.k, got, tc.words)
		}
		if got := TailMask(tc.k); got != tc.tail {
			t.Errorf("TailMask(%d) = %#x, want %#x", tc.k, got, tc.tail)
		}
	}
}

func TestEqMask32(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n, sentinel = 300, int32(-1)
	vals := make([]int32, n)
	for i := range vals {
		if rng.IntN(3) == 0 {
			vals[i] = sentinel
		} else {
			vals[i] = int32(rng.IntN(100))
		}
	}
	for _, k := range []int{0, 1, 63, 64, 65, 130, 500} {
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = int32(rng.IntN(n))
		}
		out := make([]uint64, MaskWords(k)+1)
		out[len(out)-1] = 0xdead // guard word, must stay untouched
		EqMask32(vals, ids, sentinel, out)
		for i := 0; i < k; i++ {
			want := vals[ids[i]] == sentinel
			if maskBit(out, i) != want {
				t.Fatalf("k=%d bit %d = %v, want %v", k, i, maskBit(out, i), want)
			}
		}
		for i := k; i < 64*MaskWords(k); i++ {
			if maskBit(out, i) {
				t.Fatalf("k=%d tail bit %d set", k, i)
			}
		}
		if out[len(out)-1] != 0xdead {
			t.Fatalf("k=%d guard word clobbered", k)
		}
	}
}

func TestBoolMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 200
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = rng.IntN(2) == 0
	}
	for _, k := range []int{1, 64, 100, 257} {
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = int32(rng.IntN(n))
		}
		out := make([]uint64, MaskWords(k))
		BoolMask(vals, ids, out)
		for i := 0; i < k; i++ {
			if maskBit(out, i) != vals[ids[i]] {
				t.Fatalf("k=%d bit %d = %v, want %v", k, i, maskBit(out, i), vals[ids[i]])
			}
		}
		for i := k; i < 64*len(out); i++ {
			if maskBit(out, i) {
				t.Fatalf("k=%d tail bit %d set", k, i)
			}
		}
	}
}

// The kernels must be allocation-free: they run once per 4096-edge block on
// the streaming hot path, and the steady-state 0 allocs/edge guards in the
// repository root (TestSteadyStateProcessBatchAllocs) rely on it.
func TestKernelsAllocFree(t *testing.T) {
	const n, k = 1000, KernelBlockEdges
	vals32 := make([]int32, n)
	valsB := make([]bool, n)
	ids := make([]int32, k)
	for i := range ids {
		ids[i] = int32(i % n)
	}
	out := make([]uint64, MaskWords(k))
	if avg := testing.AllocsPerRun(10, func() {
		EqMask32(vals32, ids, -1, out)
		BoolMask(valsB, ids, out)
	}); avg != 0 {
		t.Fatalf("kernels allocated %.1f times per run, want 0", avg)
	}
}
