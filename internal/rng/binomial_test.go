package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// checkBinomialMoments draws `trials` variates of Binomial(n, p) and
// verifies the sample mean and variance against the exact moments within
// a z-score tolerance.
func checkBinomialMoments(t *testing.T, s *Source, n int, p float64, trials int) {
	t.Helper()
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		k := s.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d, %v) = %d out of range", n, p, k)
		}
		f := float64(k)
		sum += f
		sum2 += f * f
	}
	tf := float64(trials)
	mean := sum / tf
	variance := sum2/tf - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	// Standard error of the mean is sqrt(var/trials); allow 5σ.
	seMean := math.Sqrt(wantVar/tf) + 1e-12
	if math.Abs(mean-wantMean) > 5*seMean+1e-9 {
		t.Fatalf("Binomial(%d, %v): mean = %v, want %v (±%v)", n, p, mean, wantMean, 5*seMean)
	}
	// Variance of the sample variance ≈ 2·var²/trials for near-normal laws;
	// use a generous 6σ band plus slack for skew.
	seVar := math.Sqrt(2/tf)*wantVar + wantVar/10 + 1e-12
	if wantVar > 0 && math.Abs(variance-wantVar) > 6*seVar {
		t.Fatalf("Binomial(%d, %v): variance = %v, want %v", n, p, variance, wantVar)
	}
}

func TestBinomialMomentsAllRegimes(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5},           // Bernoulli path
		{10, 0.3},          // Bernoulli path
		{16, 0.9},          // symmetry + Bernoulli
		{100, 0.05},        // inversion path (np = 5)
		{200, 0.02},        // inversion path
		{1000, 0.4},        // BTRS path
		{100000, 0.3},      // BTRS path
		{100000, 0.97},     // symmetry + BTRS
		{10000000, 0.0002}, // inversion with huge n, small mean
	}
	for _, tc := range cases {
		s := New(uint64(tc.n)*7919 + uint64(tc.p*1e6))
		checkBinomialMoments(t, s, tc.n, tc.p, 20000)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(1)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := s.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d", got)
	}
	if got := s.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d", got)
	}
	if got := s.Binomial(1000000, 1); got != 1000000 {
		t.Fatalf("Binomial(1e6, 1) = %d", got)
	}
}

func TestBinomialPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, .5) did not panic")
		}
	}()
	New(1).Binomial(-1, 0.5)
}

func TestBinomialRangeProperty(t *testing.T) {
	s := New(17)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := float64(pRaw) / math.MaxUint16
		k := s.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBinomialExactSmallDistribution checks the full distribution for a
// small case against exact probabilities with a chi-square-style bound.
func TestBinomialExactSmallDistribution(t *testing.T) {
	const (
		n      = 8
		p      = 0.37
		trials = 400000
	)
	s := New(23)
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		counts[s.Binomial(n, p)]++
	}
	for k := 0; k <= n; k++ {
		want := math.Exp(logBinomPMF(n, k, p)) * trials
		if want < 20 {
			continue // too rare for a tight frequency check
		}
		if diff := math.Abs(float64(counts[k]) - want); diff > 6*math.Sqrt(want) {
			t.Fatalf("Binomial(%d,%v): P(k=%d) empirical %d, want ≈%v", n, p, k, counts[k], want)
		}
	}
}

func TestLogBinomPMFNormalization(t *testing.T) {
	for _, n := range []int{1, 5, 30, 200} {
		for _, p := range []float64{0.01, 0.3, 0.5, 0.77, 0.99} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += math.Exp(logBinomPMF(n, k, p))
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("pmf(n=%d, p=%v) sums to %v", n, p, sum)
			}
		}
	}
}

func TestLogBinomPMFEdges(t *testing.T) {
	if got := logBinomPMF(5, -1, 0.5); !math.IsInf(got, -1) {
		t.Fatalf("pmf(k=-1) = %v, want -Inf", got)
	}
	if got := logBinomPMF(5, 6, 0.5); !math.IsInf(got, -1) {
		t.Fatalf("pmf(k>n) = %v, want -Inf", got)
	}
	if got := logBinomPMF(5, 0, 0); got != 0 {
		t.Fatalf("pmf(k=0,p=0) = %v, want 0 (= log 1)", got)
	}
	if got := logBinomPMF(5, 5, 1); got != 0 {
		t.Fatalf("pmf(k=n,p=1) = %v, want 0", got)
	}
	if got := logBinomPMF(5, 3, 0); !math.IsInf(got, -1) {
		t.Fatalf("pmf(k=3,p=0) = %v, want -Inf", got)
	}
}

func TestBinomialCDFTableMatchesExact(t *testing.T) {
	for _, n := range []int{1, 7, 33, 64} {
		for _, p := range []float64{0, 0.001, 0.25, 0.5, 0.93, 1} {
			tab := NewBinomialCDF(n, p)
			cum := 0.0
			for k := 0; k <= n; k++ {
				cum += math.Exp(logBinomPMF(n, k, p))
				got := tab.CDF(k)
				want := math.Min(cum, 1)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("CDF(n=%d,p=%v,k=%d) = %v, want %v", n, p, k, got, want)
				}
			}
			if tab.CDF(-1) != 0 {
				t.Fatalf("CDF(-1) = %v", tab.CDF(-1))
			}
			if tab.CDF(n+5) != 1 {
				t.Fatalf("CDF(n+5) = %v", tab.CDF(n+5))
			}
		}
	}
}

func TestBinomialCDFSamplerAgreesWithDirect(t *testing.T) {
	const (
		n      = 24
		p      = 0.41
		trials = 300000
	)
	tab := NewBinomialCDF(n, p)
	s := New(31)
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		k := tab.Sample(s)
		if k < 0 || k > n {
			t.Fatalf("table sample %d out of range", k)
		}
		counts[k]++
	}
	for k := 0; k <= n; k++ {
		want := math.Exp(logBinomPMF(n, k, p)) * trials
		if want < 20 {
			continue
		}
		if diff := math.Abs(float64(counts[k]) - want); diff > 6*math.Sqrt(want) {
			t.Fatalf("table sampler: P(k=%d) empirical %d, want ≈%v", k, counts[k], want)
		}
	}
}

func TestBinomialCDFAccessors(t *testing.T) {
	tab := NewBinomialCDF(12, 0.3)
	if tab.N() != 12 || tab.P() != 0.3 {
		t.Fatalf("accessors: N=%d P=%v", tab.N(), tab.P())
	}
}

func TestBinomialCDFClampsP(t *testing.T) {
	lo := NewBinomialCDF(4, -0.2)
	if lo.P() != 0 {
		t.Fatalf("p clamp low: %v", lo.P())
	}
	hi := NewBinomialCDF(4, 1.7)
	if hi.P() != 1 {
		t.Fatalf("p clamp high: %v", hi.P())
	}
	s := New(2)
	if k := lo.Sample(s); k != 0 {
		t.Fatalf("sample of B(4,0) = %d", k)
	}
	if k := hi.Sample(s); k != 4 {
		t.Fatalf("sample of B(4,1) = %d", k)
	}
}

func TestBinomialCDFPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBinomialCDF(-1, .5) did not panic")
		}
	}()
	NewBinomialCDF(-1, 0.5)
}

// TestBinomialThresholdsMatchesSampleU is the bit-identity foundation of
// the trend executor: for every raw stream output,
// SampleRaw(raw) must equal the float path's SampleU(UnitFloat(raw)) —
// both scan directions, every p regime (degenerate ends, skewed
// log-space tails, the p > 1/2 downward scan), and under in-place Reset
// reuse.
func TestBinomialThresholdsMatchesSampleU(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5},
		{7, 0},
		{7, 1},
		{7, 1e-12},
		{7, 1 - 1e-12},
		{36, 0.000244},
		{36, 0.0093},
		{36, 0.288},
		{36, 0.5},
		{36, 0.7},
		{36, 0.999},
		{64, 0.25},
		{200, 0.04},
		{200, 0.96},
		{2000, 1e-8}, // log-space tabulation path
	}
	var thr BinomialThresholds // exercise zero-value Reset + reuse
	s := New(97)
	for _, tc := range cases {
		cdf := NewBinomialCDF(tc.n, tc.p)
		thr.Reset(tc.n, tc.p)
		if thr.N() != tc.n || thr.P() != cdf.P() {
			t.Fatalf("accessors: N=%d P=%v, want %d %v", thr.N(), thr.P(), tc.n, cdf.P())
		}
		if got := len(thr.Thresholds()); got != tc.n+1 {
			t.Fatalf("n=%d p=%v: %d thresholds, want %d", tc.n, tc.p, got, tc.n+1)
		}
		// Structured extremes plus a random sweep of raw outputs.
		raws := []uint64{0, 1, 1 << 11, (1 << 11) - 1, ^uint64(0), ^uint64(0) - (1<<11 - 1), 1<<63 + 12345}
		for i := 0; i < 4000; i++ {
			raws = append(raws, s.Uint64())
		}
		for _, raw := range raws {
			want := cdf.SampleU(UnitFloat(raw))
			if got := thr.SampleRaw(raw); got != want {
				t.Fatalf("n=%d p=%v raw=%#x: SampleRaw=%d, SampleU=%d", tc.n, tc.p, raw, got, want)
			}
		}
	}
}

// TestBinomialThresholdsSampleStream checks that Sample consumes exactly
// one stream output per call and yields the value the float sampler
// would draw from the same stream position.
func TestBinomialThresholdsSampleStream(t *testing.T) {
	thr := NewBinomialThresholds(36, 0.288)
	cdf := NewBinomialCDF(36, 0.288)
	a, b := New(41), New(41)
	for i := 0; i < 1000; i++ {
		ka := thr.Sample(a)
		kb := cdf.Sample(b)
		if ka != kb {
			t.Fatalf("draw %d: thresholds %d, cdf %d", i, ka, kb)
		}
	}
	if *a != *b {
		t.Fatal("Sample left the two streams in different states")
	}
}

// TestBinomialThresholdsMonotone checks the scan invariants: thresholds
// nondecreasing over [0, n) and the final entry exactly 2^53 (strictly
// above every 53-bit mantissa, so scans terminate in range). The forced
// last entry may sit below an accumulation-overshot t[n−1]; both exceed
// every mantissa, so the scans stay exact.
func TestBinomialThresholdsMonotone(t *testing.T) {
	for _, p := range []float64{0, 0.001, 0.3, 0.5, 0.51, 0.97, 1} {
		thr := NewBinomialThresholds(48, p)
		ts := thr.Thresholds()
		for k := 1; k < len(ts)-1; k++ {
			if ts[k] < ts[k-1] {
				t.Fatalf("p=%v: t[%d]=%d < t[%d]=%d", p, k, ts[k], k-1, ts[k-1])
			}
		}
		if ts[len(ts)-1] != 1<<53 {
			t.Fatalf("p=%v: t[n]=%d, want 2^53", p, ts[len(ts)-1])
		}
		if thr.ScanUp() != (thr.P() <= 0.5) {
			t.Fatalf("p=%v: ScanUp=%v", p, thr.ScanUp())
		}
	}
}

// guideCases are the tables TestBinomialThresholdsGuide checks and
// FuzzBinomialThresholdsGuide starts from: ℓ = 36 across the trend
// fractions, both degenerate laws, a subnormal p, p one ulp below 1, the
// largest n a stored count holds, and (appended by guideTestCases) a
// table with t[n−1] > t[n].
var guideCases = []guideCase{
	{36, 0.000244}, {36, 0.0093}, {36, 0.288}, {36, 0.5}, {36, 0.97},
	{1, 0.3}, {48, 0.001}, {2000, 1e-8}, {300, 0.9999},
	{36, 0}, {36, 1}, {36, 5e-324}, {36, 1 - 0x1p-53},
	{65535, 1e-4}, {65535, 1 - 0x1p-53}, {0, 0.5},
}

type guideCase struct {
	n int
	p float64
}

// guideTestCases is guideCases plus an overshooting ℓ = 36 table.
func guideTestCases(tb testing.TB) []guideCase {
	x, ok := overshootFraction(36)
	if !ok {
		tb.Fatal("m = 36: no fraction overshoots the CDF; the guide check lost its edge case")
	}
	return append(guideCases[:len(guideCases):len(guideCases)], guideCase{36, x})
}

// checkGuide pins thr's guide table: every entry is its definition, the
// inversion of its bucket's base; entries are nondecreasing and at most
// n; and the guide-started upward scan — the trend kernels' inlined
// inversion — returns SampleRaw's exact answer at every edge raw, at
// both sides of every bucket base and of the first thresholds, and at
// draws from src.
func checkGuide(t *testing.T, thr *BinomialThresholds, src *Source) {
	t.Helper()
	n, p := thr.N(), thr.P()
	ts := thr.Thresholds()
	g := thr.Guide()
	prev := uint32(0)
	mants := []uint64{0, 1, 1<<53 - 1}
	for b, k0 := range g {
		base := uint64(b) << GuideShift
		if want := thr.SampleRaw(base << 11); int(k0) != want {
			t.Fatalf("n=%d p=%v: guide[%d]=%d, bucket base inverts to %d", n, p, b, k0, want)
		}
		if k0 < prev || int(k0) > n {
			t.Fatalf("n=%d p=%v: guide[%d]=%d after %d (n=%d)", n, p, b, k0, prev, n)
		}
		prev = k0
		mants = append(mants, base, base|(1<<GuideShift-1))
	}
	for _, tk := range ts[:min(len(ts), 64)] {
		if tk > 0 && tk <= 1<<53 {
			mants = append(mants, tk-1)
		}
		if tk < 1<<53 {
			mants = append(mants, tk)
		}
	}
	raws := []uint64{^uint64(0), 1 << 63}
	for _, mant := range mants {
		raws = append(raws, mant<<11|src.Uint64()>>53)
	}
	for i := 0; i < 4000; i++ {
		raws = append(raws, src.Uint64())
	}
	for _, raw := range raws {
		mant := raw >> 11
		k := int(g[mant>>GuideShift])
		for mant >= ts[k] {
			k++
		}
		if want := thr.SampleRaw(raw); k != want {
			t.Fatalf("n=%d p=%v raw=%#x: guided scan %d, SampleRaw %d", n, p, raw, k, want)
		}
	}
}

func TestBinomialThresholdsGuide(t *testing.T) {
	src := New(97)
	var thr BinomialThresholds
	for _, c := range guideTestCases(t) {
		thr.Reset(c.n, c.p)
		checkGuide(t, &thr, src)
	}
}

// FuzzBinomialThresholdsGuide: for any sample size up to 65535 and any
// success probability, the one-pass guide build meets checkGuide —
// entries equal to their definition, nondecreasing and at most n, and a
// guided scan equal to SampleRaw.
func FuzzBinomialThresholdsGuide(f *testing.F) {
	for i, c := range guideTestCases(f) {
		f.Add(uint64(i), uint16(c.n), c.p)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, p float64) {
		switch {
		case math.IsNaN(p) || math.IsInf(p, 0):
			p = 0.5
		case p < 0 || p > 1:
			p = math.Abs(p - math.Trunc(p)) // into [0, 1)
		}
		var thr BinomialThresholds
		thr.Reset(int(n16), p)
		checkGuide(t, &thr, New(seed))
	})
}

// BenchmarkBinomialThresholdsReset times the per-round table build — the
// CDF, its thresholds and the guide — at the ℓ = ⌈3·log₂ n⌉ of n = 2⁶,
// 2¹² and 2¹⁴.
func BenchmarkBinomialThresholdsReset(b *testing.B) {
	for _, m := range []int{18, 36, 42} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var thr BinomialThresholds
			for i := 0; i < b.N; i++ {
				thr.Reset(m, 0.3)
			}
		})
	}
}

func BenchmarkBinomialSmall(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Binomial(30, 0.4)
	}
	_ = sink
}

func BenchmarkBinomialBTRS(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Binomial(1000000, 0.3)
	}
	_ = sink
}

func BenchmarkBinomialCDFSample(b *testing.B) {
	tab := NewBinomialCDF(30, 0.4)
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = tab.Sample(s)
	}
	_ = sink
}
