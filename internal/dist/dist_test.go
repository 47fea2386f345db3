package dist

import (
	"math"
	"testing"

	"passivespread/internal/rng"
)

func TestPMFVectorNormalized(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0.3}, {1, 0.5}, {16, 0.25}, {200, 0.5}, {1000, 0.01}, {2000, 0.5}} {
		pmf := PMFVector(tc.n, tc.p)
		if len(pmf) != tc.n+1 {
			t.Fatalf("PMFVector(%d, %v) has length %d", tc.n, tc.p, len(pmf))
		}
		sum := 0.0
		for k, v := range pmf {
			if v < 0 {
				t.Fatalf("negative mass at k=%d for n=%d p=%v", k, tc.n, tc.p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf for n=%d p=%v sums to %v", tc.n, tc.p, sum)
		}
	}
}

func TestPMFVectorDegenerate(t *testing.T) {
	if pmf := PMFVector(5, 0); pmf[0] != 1 {
		t.Fatalf("p=0 pmf = %v", pmf)
	}
	if pmf := PMFVector(5, 1); pmf[5] != 1 {
		t.Fatalf("p=1 pmf = %v", pmf)
	}
}

func TestCompeteAgainstMonteCarlo(t *testing.T) {
	const trials = 200000
	src := rng.New(7)
	for _, tc := range []struct {
		k    int
		p, q float64
	}{{12, 0.3, 0.5}, {36, 0.45, 0.55}, {60, 0.5, 0.5}, {20, 0.1, 0.9}} {
		comp := Compete(tc.k, tc.p, tc.q)
		if sum := comp.Less + comp.Equal + comp.Greater; math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Compete(%d, %v, %v) sums to %v", tc.k, tc.p, tc.q, sum)
		}
		var less, equal, greater float64
		for i := 0; i < trials; i++ {
			x := src.Binomial(tc.k, tc.p)
			y := src.Binomial(tc.k, tc.q)
			switch {
			case x < y:
				less++
			case x == y:
				equal++
			default:
				greater++
			}
		}
		// 5σ Monte-Carlo tolerance.
		tol := 5 / math.Sqrt(trials)
		if math.Abs(less/trials-comp.Less) > tol ||
			math.Abs(equal/trials-comp.Equal) > tol ||
			math.Abs(greater/trials-comp.Greater) > tol {
			t.Fatalf("Compete(%d, %v, %v) = %+v, Monte-Carlo (%v, %v, %v)",
				tc.k, tc.p, tc.q, comp, less/trials, equal/trials, greater/trials)
		}
	}
}

func TestCompeteSymmetry(t *testing.T) {
	a := Compete(40, 0.3, 0.6)
	b := Compete(40, 0.6, 0.3)
	if math.Abs(a.Less-b.Greater) > 1e-12 || math.Abs(a.Equal-b.Equal) > 1e-12 {
		t.Fatalf("swap asymmetry: %+v vs %+v", a, b)
	}
}

func TestBoundsHoldOnGrid(t *testing.T) {
	for _, k := range []int{20, 60, 200, 1000} {
		for _, gap := range []float64{0.005, 0.02, 0.08} {
			for _, base := range [][2]float64{
				{0.5 - gap/2, 0.5 + gap/2},
				{0.4, 0.4 + gap},
			} {
				p, q := base[0], base[1]
				comp := Compete(k, p, q)
				favorite := comp.Less
				if lb := HoeffdingFavoriteWins(k, p, q); favorite < lb-1e-12 {
					t.Errorf("Hoeffding violated at k=%d p=%v q=%v: %v < %v", k, p, q, favorite, lb)
				}
				if lb := BerryEsseenUnderdogWins(k, p, q); lb > 0 && comp.Greater < lb-1e-12 {
					t.Errorf("Berry–Esseen violated at k=%d p=%v q=%v: %v < %v", k, p, q, comp.Greater, lb)
				}
				if p >= 1.0/3 && q <= 2.0/3 && q-p <= 1/math.Sqrt(float64(k)) {
					if ub := Lemma12UpperBound(k, p, q, comp.Equal); favorite >= ub {
						t.Errorf("Lemma 12 violated at k=%d p=%v q=%v: %v >= %v", k, p, q, favorite, ub)
					}
				}
			}
		}
	}
}

func TestStepMatchesCompete(t *testing.T) {
	c := Compete(24, 0.3, 0.55)
	st := Step(24, 0.3, 0.55)
	if st.GainOne != c.Less || st.StayOne != c.Less+c.Equal {
		t.Fatalf("Step inconsistent with Compete: %+v vs %+v", st, c)
	}
	if st.StayOne < st.GainOne {
		t.Fatal("StayOne must dominate GainOne (ties keep the opinion)")
	}
}

func TestDriftFixedPoints(t *testing.T) {
	// At the absorbing corner the drift is exactly 1; with everyone on 0
	// except the source, the drift stays near 0 on the diagonal of a large
	// population (the source contributes O(1/n)).
	n, ell := 4096, 36
	if g := Drift(n, ell, 1, 1); math.Abs(g-1) > 1e-12 {
		t.Fatalf("Drift at (1,1) = %v", g)
	}
	// The chain's domain has K1 ≥ 1 (the source holds 1): the deepest
	// reachable corner is (0, 1/n), where only the source persists.
	if g := Drift(n, ell, 0, 1.0/float64(n)); g <= 0 || g > 0.01 {
		t.Fatalf("Drift at (0, 1/n) = %v", g)
	}
	// Symmetric ties dilute toward 1/2: drift from the diagonal points
	// strictly toward the center (up to the source's O(1/n) push).
	if g := Drift(n, ell, 0.8, 0.8); g >= 0.8 {
		t.Fatalf("Drift at (0.8, 0.8) = %v, want < 0.8", g)
	}
	if g := Drift(n, ell, 0.2, 0.2); g <= 0.2 {
		t.Fatalf("Drift at (0.2, 0.2) = %v, want > 0.2", g)
	}
}

func TestDriftAgainstMonteCarlo(t *testing.T) {
	const trials = 200000
	n, ell := 4096, 36
	src := rng.New(11)
	for _, xy := range [][2]float64{{0.3, 0.5}, {0.5, 0.5}, {0.9, 0.95}} {
		x, y := xy[0], xy[1]
		exact := Drift(n, ell, x, y)
		sum := 0.0
		for i := 0; i < trials; i++ {
			older := src.Binomial(ell, x)
			newer := src.Binomial(ell, y)
			switch {
			case newer > older:
				sum++
			case newer == older:
				sum += y
			}
		}
		mc := sum / trials
		if math.Abs(mc-exact) > 5/math.Sqrt(trials)+1.0/float64(n) {
			t.Fatalf("Drift(%v, %v) = %v, Monte-Carlo %v", x, y, exact, mc)
		}
	}
}

// TestPMFVectorSubnormalLeadingTerm pins the case that once broke the
// aggregate engine at n = 10⁶: ℓ = 60 at an observed fraction so close
// to 1 that (1−p)^ℓ is subnormal. Seeding the forward recurrence with
// that term put the total mass 1.7·10⁻⁷ off 1, past Multinomial's
// tolerance.
func TestPMFVectorSubnormalLeadingTerm(t *testing.T) {
	p := math.Float64frombits(0x3feffff583a53b8e)
	if f := math.Pow(1-p, 60); f == 0 || f >= minNormal {
		t.Fatalf("(1−p)^60 = %v, want subnormal", f)
	}
	pmf := PMFVector(60, p)
	sum := 0.0
	for k, v := range pmf {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("pmf[%d] = %v", k, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v, want 1", sum)
	}
	// The two top terms against their closed forms.
	q := 1 - p
	if want := math.Pow(p, 60); math.Abs(pmf[60]-want) > 1e-14 {
		t.Errorf("pmf[60] = %v, want %v", pmf[60], want)
	}
	if want := 60 * q * math.Pow(p, 59); math.Abs(pmf[59]-want) > 1e-14 {
		t.Errorf("pmf[59] = %v, want %v", pmf[59], want)
	}
}
