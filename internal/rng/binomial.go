package rng

import "math"

// Binomial draws a Binomial(n, p) variate.
//
// The sampler dispatches on the regime:
//   - n ≤ smallN: direct sum of Bernoulli trials (exact, branch-cheap);
//   - n·min(p,1−p) ≤ inversionMean: sequential inversion from the pmf
//     recurrence (exact, O(mean) expected time);
//   - otherwise: BTRS, the transformed-rejection sampler of Hörmann
//     (exact, O(1) expected time), suitable for n up to 10^9 and beyond.
//
// All three paths are exact samplers of the binomial law; they differ only
// in speed.
func (s *Source) Binomial(n int, p float64) int {
	switch {
	case n < 0:
		panic("rng: Binomial called with negative n")
	case n == 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	// Exploit symmetry so the worked probability is ≤ 1/2; this keeps the
	// inversion loop short and BTRS in its valid regime.
	if p > 0.5 {
		return n - s.Binomial(n, 1-p)
	}
	const (
		smallN        = 16
		inversionMean = 14.0
	)
	switch {
	case n <= smallN:
		return s.binomialBernoulli(n, p)
	case float64(n)*p <= inversionMean:
		return s.binomialInversion(n, p)
	default:
		return s.binomialBTRS(n, p)
	}
}

// binomialBernoulli sums n Bernoulli(p) trials.
func (s *Source) binomialBernoulli(n int, p float64) int {
	// Compare 53-bit fixed-point threshold against the top bits of each
	// Uint64 to avoid n Float64 conversions.
	threshold := uint64(p * (1 << 53))
	count := 0
	for i := 0; i < n; i++ {
		if s.Uint64()>>11 < threshold {
			count++
		}
	}
	return count
}

// binomialInversion draws by inverting the CDF with the pmf recurrence
// P(k+1) = P(k) · (n−k)/(k+1) · p/(1−p). Requires p ≤ 1/2 and small n·p.
func (s *Source) binomialInversion(n int, p float64) int {
	q := 1 - p
	// q^n can underflow only when n·p is large, which this path excludes.
	f := math.Pow(q, float64(n))
	r := p / q
	u := s.Float64()
	k := 0
	for u > f {
		u -= f
		f *= float64(n-k) / float64(k+1) * r
		k++
		if k > n { // numeric safety: total mass slightly below 1
			return n
		}
	}
	return k
}

// binomialBTRS implements the BTRS transformed-rejection algorithm
// (W. Hörmann, "The generation of binomial random variates", 1993).
// Requires p ≤ 1/2 and n·p ≥ 10.
func (s *Source) binomialBTRS(n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor(float64(n+1) * p)
	h := lgammaFloat(m+1) + lgammaFloat(nf-m+1)

	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		// Squeeze failed: accept/reject via the exact log-pmf ratio.
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lgammaFloat(kf+1)-lgammaFloat(nf-kf+1)+(kf-m)*lpq {
			return int(kf)
		}
	}
}

func lgammaFloat(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// BinomialCDF is a precomputed inverse-CDF sampler for a fixed
// Binomial(n, p) law. When many agents draw from the same binomial in a
// round (all observations that round are Binomial(ℓ, x_t)), building the
// table once and sampling by binary search is far cheaper than independent
// sampling, and is exact.
type BinomialCDF struct {
	n   int
	p   float64
	cdf []float64 // cdf[k] = P(B ≤ k); cdf[n] forced to 1
}

// NewBinomialCDF builds the table for Binomial(n, p). n must be ≥ 0 and
// small enough that an (n+1)-entry table is acceptable (it is intended for
// n = ℓ = O(log population)).
func NewBinomialCDF(n int, p float64) *BinomialCDF {
	b := &BinomialCDF{}
	b.Reset(n, p)
	return b
}

// Reset retabulates the sampler for Binomial(n, p) in place, reusing the
// CDF backing array whenever its capacity allows. The round loops rebuild
// their per-round tables through Reset so retabulating the observation law
// every round costs zero steady-state allocations. A zero-value
// BinomialCDF is valid Reset input.
func (b *BinomialCDF) Reset(n int, p float64) {
	if n < 0 {
		panic("rng: BinomialCDF with negative n")
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	cdf := b.cdf
	if cap(cdf) < n+1 {
		cdf = make([]float64, n+1)
	}
	cdf = cdf[:n+1]
	// pmf by log-space evaluation at the mode would be more stable, but
	// for n = O(log population) the direct recurrence from k=0 suffices
	// unless q^n underflows; in that case start from k=n going down.
	q := 1 - p
	switch {
	case p == 0:
		for k := range cdf {
			cdf[k] = 1
		}
	case p == 1:
		for k := 0; k < n; k++ {
			cdf[k] = 0
		}
		cdf[n] = 1
	default:
		f := math.Pow(q, float64(n))
		if f > 0 {
			r := p / q
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += f
				cdf[k] = sum
				f *= float64(n-k) / float64(k+1) * r
			}
		} else {
			// Extremely skewed: evaluate each pmf term in log space.
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += math.Exp(logBinomPMF(n, k, p))
				cdf[k] = sum
			}
		}
		cdf[n] = 1
	}
	b.n, b.p, b.cdf = n, p, cdf
}

// logBinomPMF returns log P(Binomial(n,p) = k) computed in log space.
func logBinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p == 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return lgammaFloat(float64(n+1)) - lgammaFloat(float64(k+1)) - lgammaFloat(float64(n-k+1)) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// N returns the number of trials of the tabulated law.
func (b *BinomialCDF) N() int { return b.n }

// P returns the success probability of the tabulated law.
func (b *BinomialCDF) P() float64 { return b.p }

// Sample draws one variate using the source. It consumes exactly one
// Float64 (one stream output) per call, in every regime of p — the
// invariant the trend executor's degenerate-round debt relies on.
func (b *BinomialCDF) Sample(src *Source) int {
	return b.SampleU(src.Float64())
}

// SampleU inverts the tabulated CDF at u ∈ [0, 1): it is Sample with the
// uniform variate supplied by the caller — the float reference that
// BinomialThresholds.SampleRaw is checked against.
func (b *BinomialCDF) SampleU(u float64) int {
	// Binary search for the smallest k with cdf[k] > u.
	lo, hi := 0, b.n
	for lo < hi {
		mid := (lo + hi) / 2
		if b.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CDF returns P(B ≤ k) for the tabulated law, with out-of-range k clamped.
func (b *BinomialCDF) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.n {
		return 1
	}
	return b.cdf[k]
}

// BinomialThresholds is BinomialCDF with the CDF mapped through
// UnitThreshold into 53-bit integer thresholds, so a variate inverts
// against raw generator outputs with integer compares only — no float
// conversion, no float compare — while remaining bit-exact:
// SampleRaw(raw) == SampleU(UnitFloat(raw)) for every raw uint64
// (UnitThreshold's defining property, m < T[k] ⟺ float64(m)/2^53 <
// cdf[k], applied entry-wise). The trend executor tabulates one of
// these per round and scans it inline in its agent kernel.
//
// The thresholds are nondecreasing over [0, n) — the accumulated CDF
// only grows — and T[n] = 2^53 strictly exceeds every 53-bit mantissa,
// so the direction-adaptive scans below always terminate in range.
// (Accumulation can overshoot 1 just before the forced-to-1 last entry,
// making T[n−1] exceed T[n] by a few units; every mantissa lies below
// both, so the "smallest k with mant < T[k]" predicate stays monotone
// and the scans agree with SampleU exactly.) The scan direction follows
// the mass: for p ≤ 1/2
// the variate concentrates near 0 and an upward scan takes an expected
// O(np+1) compares; for p > 1/2 a downward scan from n takes
// O(n(1−p)+1). At the degenerate ends (the absorption-tail rounds,
// p ∈ {0, 1}) a sample is a single compare.
type BinomialThresholds struct {
	cdf BinomialCDF
	t   []uint64 // t[k] = UnitThreshold(cdf[k]); t[n] = 2^53
	// guide[b] is the smallest k with t[k] > b·2^GuideShift — a
	// starting index for the upward scan bucketed by the top guideBits
	// bits of the 53-bit mantissa. Because "smallest k with t[k] > X" is
	// nondecreasing in X, guide[b] never overshoots the answer for any
	// mantissa in bucket b; the scan steps past it only when a threshold
	// falls inside the bucket, at most n of the 2^guideBits buckets.
	guide [1 << guideBits]uint32
}

// guideBits is the number of top mantissa bits indexing the scan guide
// table. With 1024 buckets an ℓ ≈ 36 table sends 3–4% of the vector
// kernel's 4-lane groups past their first compare, against 8–14% at 256
// buckets; each such group costs a branch mispredict that resolves only
// after the guide and threshold gathers. A 2048-bucket guide ran no
// faster end to end while doubling the table every live round rebuilds.
const guideBits = 10

// GuideTable is the bucketed scan-start table exposed by Guide.
type GuideTable = [1 << guideBits]uint32

// NewBinomialThresholds builds the threshold table for Binomial(n, p).
func NewBinomialThresholds(n int, p float64) *BinomialThresholds {
	b := &BinomialThresholds{}
	b.Reset(n, p)
	return b
}

// Reset retabulates the thresholds for Binomial(n, p) in place, reusing
// both backing arrays whenever capacity allows. A zero-value
// BinomialThresholds is valid Reset input.
func (b *BinomialThresholds) Reset(n int, p float64) {
	b.cdf.Reset(n, p)
	t := b.t
	if cap(t) < n+1 {
		t = make([]uint64, n+1)
	}
	t = t[:n+1]
	for k := 0; k <= n; k++ {
		t[k] = UnitThreshold(b.cdf.cdf[k])
	}
	b.t = t
	// One pass over the thresholds: bucket g's base g·2^GuideShift lies
	// below t[k] exactly for g < ⌈t[k]/2^GuideShift⌉, so the first k to
	// raise that bound past the buckets filled so far owns the new ones.
	// t[n] = 2^53 reaches the last bucket, so every entry is written.
	g := 0
	for k, tk := range t {
		end := int(min((tk+1<<GuideShift-1)>>GuideShift, uint64(len(b.guide))))
		for ; g < end; g++ {
			b.guide[g] = uint32(k)
		}
	}
}

// N returns the number of trials of the tabulated law.
func (b *BinomialThresholds) N() int { return b.cdf.n }

// P returns the success probability of the tabulated law.
func (b *BinomialThresholds) P() float64 { return b.cdf.p }

// Thresholds exposes the threshold table (t[k] = UnitThreshold(P(B ≤
// k)), length N()+1) for consumers that inline ScanUp/ScanDown into
// their own kernels. The slice is owned by the sampler and valid until
// the next Reset.
func (b *BinomialThresholds) Thresholds() []uint64 { return b.t }

// ScanUp reports whether SampleRaw should scan upward from 0 (p ≤ 1/2)
// rather than downward from N.
func (b *BinomialThresholds) ScanUp() bool { return b.cdf.p <= 0.5 }

// Guide exposes the bucketed scan-start table: for a 53-bit mantissa,
// guide[mant >> GuideShift] is a lower bound on the inversion answer, so
// an upward scan from it returns SampleRaw's exact result, in one
// compare unless a threshold falls inside the mantissa's bucket. The
// array is owned by the sampler and valid until the next Reset;
// consumers inlining the scan pair it with Thresholds.
func (b *BinomialThresholds) Guide() *GuideTable { return &b.guide }

// GuideShift is the right-shift mapping a 53-bit mantissa to its Guide
// bucket.
const GuideShift = 53 - guideBits

// Sample draws one variate using the source, consuming exactly one
// stream output per call — the same invariant as BinomialCDF.Sample,
// and the same value: Sample here equals SampleU(src.Float64()) on the
// equal-parameter BinomialCDF.
func (b *BinomialThresholds) Sample(src *Source) int {
	return b.SampleRaw(src.Uint64())
}

// SampleRaw inverts the tabulated law at a raw 64-bit stream output:
// it returns the smallest k with raw>>11 < t[k], which is exactly
// BinomialCDF.SampleU(UnitFloat(raw)) — the smallest k with cdf[k] >
// UnitFloat(raw) — by UnitThreshold's equivalence.
func (b *BinomialThresholds) SampleRaw(raw uint64) int {
	mant := raw >> 11
	t := b.t
	if b.cdf.p <= 0.5 {
		k := 0
		for mant >= t[k] {
			k++
		}
		return k
	}
	k := b.cdf.n
	for k > 0 && mant < t[k-1] {
		k--
	}
	return k
}
