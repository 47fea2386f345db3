// Package dist provides the exact binomial-competition probabilities that
// drive every aggregate view of the FET dynamics, together with the
// closed-form bounds the paper proves about them (Lemmas 12–15) and the
// one-step drift of Observation 1.
//
// The central object is the coin competition: two players flip k coins
// each, with heads probabilities p and q. Under passive communication an
// agent's trend comparison is exactly such a competition — the stored
// count″ is a Binomial(ℓ, x_t) variate and the fresh count′ is a
// Binomial(ℓ, x_{t+1}) variate — so the exact win/tie/lose probabilities
// determine the per-agent flip law, the aggregate Markov chain of
// internal/markov, the occupancy engine of internal/sim, and the
// mean-field map of internal/meanfield.
//
// All probabilities here are computed exactly (up to float64 rounding)
// from binomial pmfs in O(k) time; nothing is sampled.
package dist

import "math"

// Competition holds the exact outcome probabilities of a coin competition
// between X ~ Binomial(k, p) and Y ~ Binomial(k, q).
type Competition struct {
	// Less is P(X < Y).
	Less float64
	// Equal is P(X = Y).
	Equal float64
	// Greater is P(X > Y).
	Greater float64
}

// Compete returns the exact competition probabilities for
// X ~ Binomial(k, p) versus Y ~ Binomial(k, q), computed by pairing the
// pmf of Y with the prefix sums of the pmf of X. It panics if k < 0.
func Compete(k int, p, q float64) Competition {
	px := PMFVector(k, p)
	py := PMFVector(k, q)

	var c Competition
	// cdfBelow accumulates P(X < y) as y sweeps upward.
	cdfBelow := 0.0
	for y := 0; y <= k; y++ {
		c.Less += py[y] * cdfBelow
		c.Equal += py[y] * px[y]
		cdfBelow += px[y]
	}
	c.Greater = 1 - c.Less - c.Equal
	if c.Greater < 0 {
		c.Greater = 0
	}
	return c
}

// PMFVector returns the probability mass function of Binomial(n, p) as a
// slice of length n+1: index k holds P(B = k). Out-of-range p is clamped
// to [0, 1]. It panics if n < 0.
func PMFVector(n int, p float64) []float64 {
	if n < 0 {
		panic("dist: PMFVector with negative n")
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	pmf := make([]float64, n+1)
	switch {
	case p == 0:
		pmf[0] = 1
	case p == 1:
		pmf[n] = 1
	default:
		q := 1 - p
		f := math.Pow(q, float64(n))
		// A subnormal q^n carries too few mantissa bits to seed the
		// recurrence: every term inherits its relative error (1.7·10⁻⁷
		// of total mass at n = 60, q ≈ 5·10⁻⁶), so it counts as
		// underflow too.
		if f >= minNormal {
			// Forward recurrence P(k+1) = P(k)·(n−k)/(k+1)·p/q.
			r := p / q
			for k := 0; k <= n; k++ {
				pmf[k] = f
				f *= float64(n-k) / float64(k+1) * r
			}
		} else {
			// q^n underflowed: evaluate every term in log space.
			for k := 0; k <= n; k++ {
				pmf[k] = math.Exp(logBinomPMF(n, k, p))
			}
		}
	}
	return pmf
}

// minNormal is the smallest positive normal float64, 2^−1022.
const minNormal = 0x1p-1022

// logBinomPMF returns log P(Binomial(n, p) = k) for 0 < p < 1.
func logBinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1)) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// HoeffdingFavoriteWins is the Lemma 13 lower bound on the probability
// that the favorite (the player with the larger success probability) wins
// the competition strictly: writing the score difference as a sum of k
// i.i.d. variables in [−1, 1] with mean |q−p|, Hoeffding's inequality
// gives
//
//	P(favorite wins) ≥ 1 − exp(−k(q−p)²/2).
func HoeffdingFavoriteWins(k int, p, q float64) float64 {
	gap := math.Abs(q - p)
	return 1 - math.Exp(-float64(k)*gap*gap/2)
}

// BerryEsseenUnderdogWins is the Lemma 15 lower bound on the probability
// that the underdog (the player with the smaller success probability)
// wins strictly: the normal approximation of the score difference minus
// the Berry–Esseen error (with Shevtsova's constant C = 0.56). The bound
// can be negative when the gap is large; callers should treat
// non-positive values as vacuous.
func BerryEsseenUnderdogWins(k int, p, q float64) float64 {
	if p > q {
		p, q = q, p
	}
	// D = Σᵢ (ξᵢ − ηᵢ), ξ ~ Bernoulli(p), η ~ Bernoulli(q) independent.
	// The underdog wins iff D > 0.
	mean := p - q
	variance := p*(1-p) + q*(1-q)
	if variance == 0 {
		return 0
	}
	// Exact third absolute central moment of one summand, which takes the
	// values +1, −1, 0 with probabilities p(1−q), q(1−p) and the rest.
	rho := p*(1-q)*math.Pow(math.Abs(1-mean), 3) +
		q*(1-p)*math.Pow(math.Abs(-1-mean), 3) +
		(p*q+(1-p)*(1-q))*math.Pow(math.Abs(mean), 3)

	kf := float64(k)
	sigma := math.Sqrt(kf * variance)
	const shevtsova = 0.56
	z := -kf * mean / sigma // standardized threshold at 0; mean ≤ 0
	return 1 - normalCDF(z) - shevtsova*kf*rho/(sigma*sigma*sigma)
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Lemma12UpperBound is the Lemma 12 upper bound on the probability that
// the favorite wins a close competition: in the regime p, q ∈ [1/3, 2/3]
// and |q−p| ≤ 1/√k, the competition stays nearly fair —
//
//	P(favorite wins) < (1 − P(tie))/2 + P(tie)/2 + 2√k·|q−p|,
//
// i.e. the favorite's advantage over the fair share is at most the tie
// mass plus O(√k·|q−p|). The caller supplies the exact tie probability
// (available from Compete).
func Lemma12UpperBound(k int, p, q float64, equal float64) float64 {
	gap := math.Abs(q - p)
	bound := (1-equal)/2 + equal/2 + 2*math.Sqrt(float64(k))*gap
	if bound > 1 {
		bound = 1
	}
	return bound
}

// StepProbs holds the two per-agent transition probabilities of
// Observation 1, conditioned on consecutive opinion fractions
// (x_t, x_{t+1}): every non-source agent compares a fresh
// count′ ~ Binomial(ℓ, x_{t+1}) against its stored
// count″ ~ Binomial(ℓ, x_t).
type StepProbs struct {
	// StayOne is the probability that a 1-holder keeps opinion 1:
	// P(B_ℓ(x_{t+1}) ≥ B_ℓ(x_t)) (ties keep the current opinion).
	StayOne float64
	// GainOne is the probability that a 0-holder switches to 1:
	// P(B_ℓ(x_{t+1}) > B_ℓ(x_t)).
	GainOne float64
}

// Step returns the exact per-agent transition probabilities for per-half
// sample size ell, conditioned on (x_t, x_{t+1}) = (x0, x1).
func Step(ell int, x0, x1 float64) StepProbs {
	c := Compete(ell, x0, x1)
	return StepProbs{
		StayOne: c.Less + c.Equal,
		GainOne: c.Less,
	}
}

// Drift returns the exact one-step drift g(x_t, x_{t+1}) of Observation 1
// (Eq. (2)): the expected fraction of 1-opinions at round t+2 for a
// population of n agents with one source holding opinion 1,
//
//	g(x0, x1) = (1 + (n·x1 − 1)·StayOne + n·(1 − x1)·GainOne) / n.
func Drift(n, ell int, x0, x1 float64) float64 {
	st := Step(ell, x0, x1)
	nf := float64(n)
	k1 := x1 * nf
	return (1 + (k1-1)*st.StayOne + (nf-k1)*st.GainOne) / nf
}
