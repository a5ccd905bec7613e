// Package xrand provides deterministic, seedable randomness for every
// randomized component in streamcover.
//
// All algorithms in the paper are randomized; reproducible experiments need
// every coin flip to derive from an explicit seed. xrand wraps math/rand/v2's
// PCG generator and adds the sampling primitives the algorithms use: biased
// coins, without-replacement samples, bounded Zipf variates, and stream
// splitting so that independent components of one experiment draw from
// independent generators.
package xrand

import (
	"fmt"
	"math"
	"math/rand/v2"

	"streamcover/internal/snap"
)

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; derive per-goroutine generators with Split.
type Rand struct {
	src *rand.Rand
	// pcg is the concrete source behind src, retained so Save/Load can
	// serialize the generator state (rand.Rand keeps no state of its own).
	pcg *rand.PCG
	// seed material retained so Split can derive independent children.
	hi, lo uint64
	splits uint64
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	// Run the seed through splitmix64 twice to decorrelate small seeds
	// (0, 1, 2, ...) that experiments commonly use.
	hi := splitmix64(&seed)
	lo := splitmix64(&seed)
	return newFrom(hi, lo)
}

func newFrom(hi, lo uint64) *Rand {
	pcg := rand.NewPCG(hi, lo)
	return &Rand{src: rand.New(pcg), pcg: pcg, hi: hi, lo: lo}
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// standard seed-expansion function from Steele, Lea & Flood (OOPSLA 2014).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new generator statistically independent of the parent.
// Successive Split calls on the same parent yield distinct children, and the
// parent's own stream is unaffected.
func (r *Rand) Split() *Rand {
	r.splits++
	s := r.hi ^ (r.lo * 0x9e3779b97f4a7c15) ^ r.splits
	hi := splitmix64(&s)
	lo := splitmix64(&s)
	return newFrom(hi, lo)
}

// Save serializes the complete generator state — the PCG position (via its
// binary marshaling) plus the seed material and split counter — so a loaded
// generator continues the exact coin-flip sequence, including future Splits.
func (r *Rand) Save(w *snap.Writer) {
	w.U64(r.hi)
	w.U64(r.lo)
	w.U64(r.splits)
	state, err := r.pcg.MarshalBinary()
	if err != nil {
		w.Fail(fmt.Errorf("xrand: marshal pcg: %w", err))
		return
	}
	w.Bytes(state)
}

// Load restores state written by Save into this generator.
func (r *Rand) Load(sr *snap.Reader) {
	hi := sr.U64()
	lo := sr.U64()
	splits := sr.U64()
	state := sr.Bytes()
	if sr.Err() != nil {
		return
	}
	if err := r.pcg.UnmarshalBinary(state); err != nil {
		sr.Failf("%w: pcg state: %v", snap.ErrCorrupt, err)
		return
	}
	r.hi, r.lo, r.splits = hi, lo, splits
}

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// PCG returns the concrete generator behind r. src wraps it, so its Uint64
// is r.Uint64: the same value, leaving the same state. A hot loop that
// holds it draws without a call, since the compiler inlines PCG.Uint64 but
// no wrapper around it.
func (r *Rand) PCG() *rand.PCG { return r.pcg }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Int32N returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int32N(n int32) int32 { return r.src.Int32N(n) }

// Coin returns true with probability p. Probabilities outside [0, 1] are
// clamped: p <= 0 never fires, p >= 1 always fires (the paper's sampling
// probabilities such as min{2^j/n, 1} rely on this clamping).
func (r *Rand) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// A Threshold is a coin's probability precomputed for CoinAt, which flips
// it with one integer compare. NewThreshold(p) flips exactly as Coin(p):
// Float64 is y/2^53, where y is the low 53 bits of one Uint64, and for an
// integer y, y/2^53 < p holds exactly when y < ⌈p·2^53⌉. A probability
// outside (0, 1) is decided without a draw, as Coin decides it.
type Threshold uint64

// thresholdCertain is the threshold of p ≥ 1: every 53-bit draw lies below
// it. A p below 1 gives at most 2^53 − 1.
const thresholdCertain Threshold = 1 << 53

// NewThreshold returns the threshold ⌈p·2^53⌉ of a coin with probability
// p, 0 for p ≤ 0 and 2^53 for p ≥ 1. It panics on NaN: Coin(NaN) draws and
// then fails, which no threshold expresses.
func NewThreshold(p float64) Threshold {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return thresholdCertain
	case p != p:
		panic("xrand: NewThreshold of NaN")
	}
	return Threshold(math.Ceil(math.Ldexp(p, 53)))
}

// CoinAt is Coin(p) for t = NewThreshold(p): the same decisions from the
// same draws.
func (r *Rand) CoinAt(t Threshold) bool {
	if !t.Draws() {
		return t != 0
	}
	return t.Admits(r.pcg.Uint64())
}

// Draws reports whether flipping t takes a draw: whether its probability
// lay strictly between 0 and 1. Without a draw, the coin is heads exactly
// when t is not 0.
func (t Threshold) Draws() bool { return t-1 < thresholdCertain-1 }

// Admits is the decision of a coin that draws: heads when the low 53 bits
// of the draw x, the bits Float64 keeps, lie below t. CoinAt and any loop
// that inlines the draw through PCG share it.
func (t Threshold) Admits(x uint64) bool {
	return x&uint64(thresholdCertain-1) < uint64(t)
}

// Perm returns a uniform permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// SampleK returns k distinct values from [0, n) in random order.
// It panics if k > n or k < 0.
//
// For k much smaller than n it uses rejection, remembering the values drawn
// in an n-bit set; otherwise it uses a partial Fisher-Yates pass, so both
// tiny and dense samples are cheap.
func (r *Rand) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleK out of range")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		out := make([]int, 0, k)
		seen := make([]uint64, (n+63)/64)
		for len(out) < k {
			v := r.src.IntN(n)
			w, bit := v>>6, uint64(1)<<(v&63)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.src.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// SampleK32 is SampleK returning int32 values, matching the element and set
// identifier width used throughout the library.
func (r *Rand) SampleK32(n, k int) []int32 {
	s := r.SampleK(n, k)
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// Binomial returns a sample from Binomial(n, p) by inversion for small n·p
// and by normal approximation beyond that. Experiments use it only for
// workload sizing, where the approximation is irrelevant.
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 64 && n < 1<<20 {
		// Direct simulation by counting geometric skips: expected work O(n·p).
		count := 0
		i := 0
		logq := math.Log1p(-p)
		for {
			skip := int(math.Floor(math.Log(1-r.Float64()) / logq))
			i += skip + 1
			if i > n {
				break
			}
			count++
		}
		return count
	}
	sd := math.Sqrt(mean * (1 - p))
	v := int(math.Round(mean + sd*r.src.NormFloat64()))
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

// Zipf draws values in [0, n) following an (approximate) Zipf law with
// exponent s >= 0: P(i) proportional to 1/(i+1)^s. The sampler precomputes
// the CDF once, so construction is O(n) and each draw is O(log n).
type Zipf struct {
	cdf []float64
	rng *Rand
}

// NewZipf constructs a bounded Zipf sampler over [0, n) with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf needs n > 0")
	}
	if s < 0 {
		panic("xrand: NewZipf needs s >= 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next Zipf variate in [0, n).
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
