package core

import (
	"fmt"
	"math"
	"strconv"

	"streamcover/internal/setcover"
)

// Params are the tunable constants of Algorithm 1. The paper's analysis
// fixes them asymptotically (e.g. special-set thresholds of j·log⁶m, epoch
// lengths ℓ_i = 2^i·N/(n·log m), K = ½log n − 3·log log m − 2); those values
// are only meaningful at astronomically large m, so DefaultParams provides a
// calibration that preserves the *structure and scaling laws* — the 2^j
// geometric inclusion/tracking schedules, the √n-batch rotation, the
// epoch/subepoch hierarchy — at laptop scale, while FaithfulParams
// reproduces the paper's constants verbatim (see DESIGN.md §3.3 for the
// documented substitution).
type Params struct {
	// C multiplies every inclusion probability: p_0 = C·√n·log₂(m)/m and
	// p_j = 2^j·p_0 (Algorithm 1 lines 6 and 29).
	C float64

	// K is the number of successively longer algorithms A(1..K)
	// (line 9). Zero selects an automatic value.
	K int

	// Epochs is the number of epochs per A(i) (line 12). Zero selects the
	// paper's log₂m − ½log₂n, capped for practicality.
	Epochs int

	// BudgetFrac is the fraction of the stream consumed by epoch 0 plus all
	// A(i); the remainder collects covering witnesses (lines 33–36). The
	// faithful schedule implies ≈ 1/log³m; the practical default is 0.6.
	BudgetFrac float64

	// Epoch0Frac, when positive, fixes the epoch-0 degree-detection prefix
	// (line 7) to this fraction of the stream instead of the C-derived
	// Θ(√n·N·log m/m) length. Useful for isolating the detection mechanism
	// from the sampling constant in tests and ablations.
	Epoch0Frac float64

	// SpecialBase is τ in the special-set counter threshold max(1, ⌈j·τ⌉)
	// for epoch j (line 28, where the paper uses τ = log⁶m).
	SpecialBase float64

	// TrackBoost multiplies the tracking sample rates q_j = 2^j/n (lines 10
	// and 30) and, implicitly, the marking threshold derived from them
	// (line 31). The paper's q_j only produce a statistically visible signal
	// when m = Ω̃(n²·polylog); the default boost of √n restores the signal at
	// moderate m without changing the 2^j schedule.
	TrackBoost float64

	// Faithful selects the paper's exact schedule for K, Epochs, epoch
	// lengths and the epoch-0 prefix, ignoring BudgetFrac.
	Faithful bool

	// TraceSpecialSets records the identity (not just the count) of every
	// special set per epoch in the Trace, enabling the Lemma 5 monotonicity
	// analysis at the cost of O(#specials) extra trace memory. Diagnostics
	// only — the recorded ids are not charged to the space meter.
	TraceSpecialSets bool

	// Component knockouts, for the E-ABL-KNOCK ablation: each removes one
	// mechanism the analysis depends on so its contribution can be
	// measured. Never set in production use.
	//
	// DisableEpoch0Sampling removes line 6's up-front p_0 sample of Sol.
	// DisableEpoch0Detection removes line 7's high-degree marking.
	// DisableTracking removes Q̃/T and line 31's optimistic marking.
	DisableEpoch0Sampling  bool
	DisableEpoch0Detection bool
	DisableTracking        bool
}

// DefaultParams returns the practical calibration for an instance with n
// elements and m sets.
//
// C = 0.5 keeps the epoch-0 sample |Sol| ≈ C·√n·log₂m comfortably below n
// at laptop scale (the |Sol| ≥ n fallback fires otherwise — the paper's
// Õ(√n) sample is only ≪ n asymptotically); elements it occasionally fails
// to cover are patched, which the Õ(√n) guarantee absorbs.
func DefaultParams(n, m int) Params {
	return Params{
		C:           0.5,
		BudgetFrac:  0.6,
		SpecialBase: 1,
		TrackBoost:  math.Sqrt(float64(n)),
	}
}

// FaithfulParams returns the paper's constants: K = ½log₂n − 3·log₂log₂m − 2
// (clamped to ≥ 1), log₂m − ½log₂n epochs, subepoch lengths
// ℓ_i = 2^i·N/(n·log₂m), and special thresholds j·log₂⁶m. At laptop scale
// these thresholds are never reached (log₂⁶m ≈ 3·10⁷ for m = 10⁵), so the
// run degrades to epoch-0 sampling plus patching — exactly what the paper's
// constants prescribe at such sizes. Experiments use DefaultParams.
func FaithfulParams(n, m int) Params {
	logm := math.Log2(float64(m))
	return Params{
		C:           4,
		SpecialBase: math.Pow(logm, 6),
		TrackBoost:  1,
		Faithful:    true,
	}
}

// resolved holds the concrete schedule derived from Params and the instance
// shape (n, m, N).
type resolved struct {
	Params
	n, m, N int
	B       int   // number of batches = round(√n), also subepochs per epoch
	K       int   // algorithms A(1..K)
	E       int   // epochs per algorithm
	ell     []int // ell[i] = subepoch length of A(i), 1-based (ell[0] unused)
	p0      float64
	epoch0P int // epoch-0 detection prefix length (line 7)

	batchMul uint64 // ⌈2^64/B⌉, wrapped to 0 at B = 1: batchTest's constant
}

// resolve computes the schedule. It panics on invalid shapes; Params fields
// outside their domains are clamped.
func (p Params) resolve(n, m, N int) resolved {
	if n <= 0 || m <= 0 || N < 0 {
		panic(fmt.Sprintf("core: invalid shape n=%d m=%d N=%d", n, m, N))
	}
	r := resolved{Params: p, n: n, m: m, N: N}
	r.B = int(math.Max(1, math.Round(math.Sqrt(float64(n)))))
	r.batchMul = math.MaxUint64/uint64(r.B) + 1
	logn := math.Log2(float64(n) + 1)
	logm := math.Log2(float64(m) + 1)

	if p.C <= 0 {
		r.C = 2
	}
	if p.SpecialBase <= 0 {
		r.SpecialBase = 1
	}
	if p.TrackBoost <= 0 {
		r.TrackBoost = 1
	}
	if p.BudgetFrac <= 0 || p.BudgetFrac >= 1 {
		r.BudgetFrac = 0.6
	}

	// K: line 9's ½log n − 3·log log m − 2 faithfully; practically the
	// deepest level such that 2^K stays a constant fraction of √n.
	switch {
	case p.K > 0:
		r.K = p.K
	case p.Faithful:
		r.K = int(0.5*logn - 3*math.Log2(logm) - 2)
	default:
		r.K = int(math.Log2(math.Sqrt(float64(n))))
		if r.K > 6 {
			r.K = 6
		}
	}
	if r.K < 1 {
		r.K = 1
	}

	// Epochs: line 12's log m − ½ log n, capped in practical mode so each
	// subepoch keeps a usable share of the budget.
	switch {
	case p.Epochs > 0:
		r.E = p.Epochs
	default:
		r.E = int(math.Ceil(logm - 0.5*logn))
		if !p.Faithful && r.E > 10 {
			r.E = 10
		}
	}
	if r.E < 1 {
		r.E = 1
	}

	// p_0 = C·√n·log₂(m)/m (line 6).
	r.p0 = math.Min(1, r.C*math.Sqrt(float64(n))*logm/float64(m))

	// Epoch-0 prefix: Θ(√n·N·log m / m) edges (line 7), clamped to [B, N/8]
	// in practical mode so small streams still get a detection window.
	if p.Epoch0Frac > 0 {
		r.epoch0P = int(math.Min(1, p.Epoch0Frac) * float64(N))
	} else {
		p0len := r.C * math.Sqrt(float64(n)) * float64(N) * logm / float64(m)
		r.epoch0P = int(p0len)
		if !p.Faithful {
			if r.epoch0P < r.B {
				r.epoch0P = r.B
			}
			if r.epoch0P > N/8 {
				r.epoch0P = N / 8
			}
		}
	}
	if r.epoch0P > N {
		r.epoch0P = N
	}
	if r.epoch0P < 0 {
		r.epoch0P = 0
	}

	// Subepoch lengths ℓ_i, doubling in i (line 18). Faithful:
	// ℓ_i = 2^i·N/(n·log m). Practical: stretch the same 2^i schedule so the
	// whole A-phase consumes BudgetFrac of the stream after epoch 0.
	r.ell = make([]int, r.K+1)
	if p.Faithful {
		for i := 1; i <= r.K; i++ {
			r.ell[i] = int(math.Ldexp(float64(N)/(float64(n)*logm), i))
			if r.ell[i] < 1 {
				r.ell[i] = 1
			}
		}
	} else {
		budget := r.BudgetFrac*float64(N) - float64(r.epoch0P)
		if budget < 0 {
			budget = 0
		}
		// Σ_{i=1..K} E·B·ℓ_i with ℓ_i ∝ 2^i ⇒ unit U = budget/(E·B·(2^{K+1}−2)).
		unit := budget / (float64(r.E) * float64(r.B) * (math.Ldexp(1, r.K+1) - 2))
		for i := 1; i <= r.K; i++ {
			r.ell[i] = int(math.Ldexp(unit, i))
			if r.ell[i] < 1 {
				r.ell[i] = 1
			}
		}
	}
	return r
}

// pj returns the epoch-j inclusion probability p_j = min(1, 2^j·p_0)
// (line 29).
func (r *resolved) pj(j int) float64 {
	return math.Min(1, math.Ldexp(r.p0, j))
}

// qj returns the epoch-j tracking sample probability
// q_j = min(1, TrackBoost·2^j/n) (lines 10 and 30; boost = 1 is the paper's
// schedule).
func (r *resolved) qj(j int) float64 {
	return math.Min(1, r.TrackBoost*math.Ldexp(1/float64(r.n), j))
}

// specialThreshold returns the epoch-j special-set counter threshold
// max(1, ⌈j·SpecialBase⌉) (line 28; SpecialBase = log⁶m is the paper's
// value).
func (r *resolved) specialThreshold(j int) int32 {
	t := int32(math.Ceil(float64(j) * r.SpecialBase))
	if t < 1 {
		t = 1
	}
	return t
}

// A batchTest decides batchOf(s) == b for one batch b without a division
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation", 2019).
// With c = ⌈2^64/B⌉, a 32-bit x is a multiple of B exactly when
// x·c mod 2^64 < c, for any B < 2^31. x = s + B − b is below 2^32 for every
// set id s (an int32) and is a multiple of B exactly when s mod B = b. At
// B = 1, c wraps to 0, and the test x·c ≤ c − 1 holds for every x, as it
// should.
type batchTest struct{ off, mul uint64 }

// batchTest returns the test for batch b ∈ [0, B).
func (r *resolved) batchTest(b int) batchTest {
	return batchTest{off: uint64(r.B - b), mul: r.batchMul}
}

// has reports whether set s is in the test's batch.
func (t batchTest) has(s setcover.SetID) bool {
	return (uint64(uint32(s))+t.off)*t.mul <= t.mul-1
}

// String summarises the schedule for reports and debugging, and is the
// shape fingerprint of Algorithm 1's snapshots. It formats as
// fmt.Sprintf("core: n=%d m=%d N=%d B=%d K=%d E=%d epoch0=%d ell=%v p0=%.3g",
// ..., r.ell[1:], r.p0) would, byte for byte, without fmt: core.New builds
// it for every run.
func (r resolved) String() string {
	b := make([]byte, 0, 96)
	b = append(b, "core: n="...)
	b = strconv.AppendInt(b, int64(r.n), 10)
	b = append(b, " m="...)
	b = strconv.AppendInt(b, int64(r.m), 10)
	b = append(b, " N="...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, " B="...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, " K="...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, " E="...)
	b = strconv.AppendInt(b, int64(r.E), 10)
	b = append(b, " epoch0="...)
	b = strconv.AppendInt(b, int64(r.epoch0P), 10)
	b = append(b, " ell=["...)
	for i, l := range r.ell[1:] {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	b = append(b, "] p0="...)
	b = strconv.AppendFloat(b, r.p0, 'g', 3, 64)
	return string(b)
}
