package experiment

import (
	"math"

	"passivespread/internal/dist"
	"passivespread/internal/rng"
	"passivespread/internal/tablefmt"
)

func runE10(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E10")

	// Part 1: the four competition bounds over a (k, p, q) grid.
	type gridCase struct {
		k    int
		p, q float64
	}
	var cases []gridCase
	for _, k := range []int{20, 60, 200, 1000} {
		for _, gap := range []float64{0.005, 0.02, 0.08} {
			cases = append(cases, gridCase{k, 0.5 - gap/2, 0.5 + gap/2})
			cases = append(cases, gridCase{k, 0.4, 0.4 + gap})
		}
	}
	tab := tablefmt.New("k", "p", "q", "P(favorite wins)", "Hoeffding LB (L13)",
		"P(underdog wins)", "Berry–Esseen LB (L15)", "Lemma 12 UB", "all hold")
	violations := 0
	for _, c := range cases {
		comp := dist.Compete(c.k, c.p, c.q)
		favorite := comp.Less // P(B_k(p) < B_k(q))
		underdog := comp.Greater
		hoeffding := dist.HoeffdingFavoriteWins(c.k, c.p, c.q)
		berry := dist.BerryEsseenUnderdogWins(c.k, c.p, c.q)
		l12 := math.NaN()
		inL12Regime := c.p >= 1.0/3 && c.q <= 2.0/3 && c.q-c.p <= 1/math.Sqrt(float64(c.k))
		if inL12Regime {
			l12 = dist.Lemma12UpperBound(c.k, c.p, c.q, comp.Equal)
		}
		holds := favorite >= hoeffding-1e-12 &&
			(berry <= 0 || underdog >= berry-1e-12) &&
			(!inL12Regime || favorite < l12)
		if !holds {
			violations++
		}
		tab.AddRow(c.k, c.p, c.q, favorite, hoeffding, underdog, berry, l12, holds)
	}
	rep.AddTable("competition bounds (exact probabilities via convolution)", tab)
	if violations == 0 {
		rep.AddNote("all %d grid cases satisfy Lemmas 12, 13 and 15 (Lemma 12 checked in its regime p,q ∈ [1/3,2/3], q−p ≤ 1/√k)", len(cases))
	} else {
		rep.AddNote("WARNING: %d bound violations", violations)
	}

	// Part 2: Observation 1 — exact drift g(x, y) vs Monte-Carlo.
	n := 4096
	ell := 36
	mcTrials := Pick(cfg, 200000, 20000)
	driftTab := tablefmt.New("x_t", "x_{t+1}", "g(x,y) exact", "Monte-Carlo", "abs diff")
	//fet:allow seedflow: legacy pre-StreamSeed derivation; the E-series Monte-Carlo tables recorded in EXPERIMENTS.md pin this stream
	src := rng.New(cfg.Seed ^ 0xdead)
	worst := 0.0
	for _, xy := range [][2]float64{{0.1, 0.1}, {0.3, 0.5}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.95}} {
		x, y := xy[0], xy[1]
		exact := dist.Drift(n, ell, x, y)
		// Monte-Carlo of the per-agent rule, aggregated: simulate the two
		// flip probabilities directly.
		sum := 0.0
		for i := 0; i < mcTrials; i++ {
			older := src.Binomial(ell, x)
			newer := src.Binomial(ell, y)
			switch {
			case newer > older:
				sum++
			case newer == older:
				sum += y // a fraction x_{t+1} of agents holds 1 on ties
			}
		}
		mc := sum / float64(mcTrials)
		diff := math.Abs(mc - exact)
		if diff > worst {
			worst = diff
		}
		driftTab.AddRow(x, y, exact, mc, diff)
	}
	rep.AddTable("Observation 1: exact one-step drift vs Monte-Carlo (1/n terms below MC noise)", driftTab)
	rep.AddNote("worst drift deviation %.4f (MC noise scale ~%.4f)", worst, 1/math.Sqrt(float64(mcTrials)))
	return rep, nil
}
