package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}

	// Splitting must not perturb the parent stream.
	p1 := New(7)
	p2 := New(7)
	_ = p2.Split()
	for i := 0; i < 100; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatalf("Split perturbed parent stream at draw %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestCoinClamping(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Coin(0) {
			t.Fatal("Coin(0) fired")
		}
		if r.Coin(-1) {
			t.Fatal("Coin(-1) fired")
		}
		if !r.Coin(1) {
			t.Fatal("Coin(1) missed")
		}
		if !r.Coin(2.5) {
			t.Fatal("Coin(2.5) missed")
		}
	}
}

func TestCoinBias(t *testing.T) {
	r := New(5)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Coin(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Coin(%v) empirical rate %v", p, got)
		}
	}
}

// TestThresholdPinnedDraws pins the threshold coin's decision on chosen
// draws around each threshold t: heads exactly when Float64 of the same
// draw, its low 53 bits over 2^53, lies below p. The high 11 bits, which
// Float64 drops, must not matter.
func TestThresholdPinnedDraws(t *testing.T) {
	ps := []float64{0x1p-31, 2 * 17.0 / 4000, 0.5, 1 - 0x1p-53}
	for _, k := range []uint64{1, 3, 12345, 1<<52 + 1, 1<<53 - 2} {
		p := float64(k) / (1 << 53)
		ps = append(ps, math.Nextafter(p, 0), p, math.Nextafter(p, 1))
	}
	const low53 = 1<<53 - 1
	for _, p := range ps {
		th := NewThreshold(p)
		if !th.Draws() {
			t.Fatalf("p=%g: threshold %d does not draw", p, th)
		}
		for _, y := range []uint64{uint64(th) - 1, uint64(th), uint64(th) + 1, 0, low53} {
			if y > low53 {
				continue // t = 2^53 − 1 has no 53-bit draw above it
			}
			want := float64(y)/(1<<53) < p
			for _, high := range []uint64{0, ^uint64(low53)} {
				if got := th.Admits(y | high); got != want {
					t.Errorf("p=%g t=%d: draw %#x (low 53 bits %d) gives %v, Float64 gives %v", p, th, y|high, y, got, want)
				}
			}
		}
	}
}

// TestCoinAtMatchesCoin flips two generators from one seed, one through
// Coin(p) and one through CoinAt(NewThreshold(p)), over the inclusion
// probabilities of kk's level ladder for several (n, m) plus the clamped
// probabilities. Every decision must agree, and so must the state each
// generator ends in: a coin draws exactly when the other does.
func TestCoinAtMatchesCoin(t *testing.T) {
	ps := []float64{0, -1, 1, 1.5}
	for _, nm := range [][2]int{{300, 4000}, {900, 18000}, {200, 1500}, {64, 16}, {1 << 20, 1<<31 - 1}} {
		sqrtN := math.Max(1, math.Round(math.Sqrt(float64(nm[0]))))
		for lvl := 1; ; lvl++ {
			p := math.Ldexp(sqrtN/float64(nm[1]), lvl)
			ps = append(ps, p)
			if p >= 1 {
				break
			}
		}
	}
	a, b := New(2024), New(2024)
	const coins = 10000
	for i := 0; i < coins; i++ {
		p := ps[i%len(ps)]
		if want, got := a.Coin(p), b.CoinAt(NewThreshold(p)); got != want {
			t.Fatalf("coin %d, p=%g: CoinAt %v, Coin %v", i, p, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("after %d coins the generators' states differ", coins)
	}
}

func TestNewThresholdPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThreshold(NaN) did not panic")
		}
	}()
	NewThreshold(math.NaN())
}

func TestIntNRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.IntN(17)
		if v < 0 || v >= 17 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleKProperties(t *testing.T) {
	r := New(9)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]struct{}, k)
		for _, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKSparseAndDense(t *testing.T) {
	r := New(10)
	// Sparse path: k*8 < n.
	s := r.SampleK(10000, 5)
	if len(s) != 5 {
		t.Fatalf("sparse sample len %d", len(s))
	}
	// Dense path: k == n must return all values.
	s = r.SampleK(50, 50)
	seen := make([]bool, 50)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("dense sample missing %d", i)
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	r := New(11)
	for _, tc := range []struct{ n, k int }{{5, 6}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleK(%d,%d) did not panic", tc.n, tc.k)
				}
			}()
			r.SampleK(tc.n, tc.k)
		}()
	}
}

func TestSampleK32Matches(t *testing.T) {
	s := New(12).SampleK32(100, 10)
	if len(s) != 10 {
		t.Fatalf("len %d", len(s))
	}
	for _, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range %d", v)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(13)
	const trials = 20000
	for _, tc := range []struct {
		n int
		p float64
	}{{100, 0.1}, {1000, 0.01}, {100000, 0.3}} {
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := r.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial out of range: %d", v)
			}
			sum += float64(v)
		}
		mean := sum / trials
		want := float64(tc.n) * tc.p
		sd := math.Sqrt(want * (1 - tc.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(trials)+0.5 {
			t.Errorf("Binomial(%d,%v) mean %v want ~%v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(14)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, .5) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("Binomial(10, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("Binomial(10, 1) != 10")
	}
	if r.Binomial(10, -0.5) != 0 {
		t.Error("Binomial(10, -0.5) != 0")
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(15)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	if counts[0] == 50000 {
		t.Error("Zipf degenerate: all mass at 0")
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(16)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("Zipf(s=0) bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(17)
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-3, 1}, {10, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(r, tc.n, tc.s)
		}()
	}
}

func BenchmarkCoin(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Coin(0.25)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1<<16, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw()
	}
}

// TestSampleKPinnedDraws pins SampleK's output and the generator's state
// after it, for fixed seeds and (n, k) on both branches: rejection
// (k·8 < n) and the partial Fisher–Yates pass. The digest folds every
// sample in order; the next Uint64 shows the call made the same draws.
// Every algorithm and workload generator that samples depends on both.
func TestSampleKPinnedDraws(t *testing.T) {
	for _, tc := range []struct {
		seed         uint64
		n, k         int
		digest, next uint64
	}{
		// Rejection.
		{1, 4000, 104, 0x50a0910423de54ae, 0x731c8397b4dc1991},
		{7, 4000, 231, 0x1b15e6aa9e478350, 0x3770c22c2b572881},
		{2, 1000, 1, 0xaf61f74c85feb46d, 0xfe57a921339b50b9},
		{3, 100, 12, 0x38f678a841df7fab, 0x4f3da1748cf59e19},
		{4, 1 << 20, 50, 0x286c1aa92e2958a9, 0x648698c8245fd2c9},
		{5, 65, 8, 0x62446aeca80fb9fe, 0x83a3e7d77fd043e5},
		// Partial Fisher–Yates.
		{1, 100, 13, 0x95147767443924ac, 0x846b2746b6fa200c},
		{6, 50, 50, 0x7cd99f1d479d0572, 0xc9f8d09071f007b2},
		{8, 4000, 600, 0x9c7a924378a6cf51, 0x1f0e691262f9ed64},
		{9, 10, 3, 0xd08bc5186712ed55, 0xd02efb8f9643b9c1},
	} {
		r := New(tc.seed)
		d := uint64(14695981039346656037)
		for _, v := range r.SampleK(tc.n, tc.k) {
			d = (d ^ uint64(v)) * 1099511628211
		}
		if next := r.Uint64(); d != tc.digest || next != tc.next {
			t.Errorf("seed %d SampleK(%d, %d): digest %#x, next %#x; want %#x, %#x",
				tc.seed, tc.n, tc.k, d, next, tc.digest, tc.next)
		}
	}
}
