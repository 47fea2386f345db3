package experiment

import (
	"fmt"
	"math"

	"passivespread/internal/core"
	"passivespread/internal/dist"
	"passivespread/internal/domain"
	"passivespread/internal/markov"
	"passivespread/internal/stats"
	"passivespread/internal/tablefmt"
)

func runE05(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E05")

	n := Pick(cfg, 1<<14, 1<<10)
	trials := Pick(cfg, 300, 40)
	points := []struct {
		name   string
		x0, x1 float64
		toOnes bool // Green1 expects consensus on 1, Green0 on 0
	}{
		{"Green1 fast (0.25→0.75)", 0.25, 0.75, true},
		{"Green1 slow (0.40→0.52)", 0.40, 0.52, true},
		{"Green0 fast (0.75→0.25)", 0.75, 0.25, false},
	}

	tab := tablefmt.New("start", "c", "ℓ", "per-agent fail prob (exact)",
		"predicted all-ok", "observed all-ok")
	for pi, pt := range points {
		for _, c := range []float64{3, 6, 12} {
			ell := core.SampleSize(n, c)
			// Per-agent failure: ending on the wrong opinion after one round.
			comp := dist.Compete(ell, pt.x0, pt.x1) // X~B(ℓ,x0) vs Y~B(ℓ,x1)
			var fail float64
			if pt.toOnes {
				// Fails to adopt 1: count′ ≤ count′′ and (on tie) held 0.
				// Upper bound (Remark 2): P(B(x1) ≤ B(x0)).
				fail = comp.Greater + comp.Equal
			} else {
				fail = comp.Less + comp.Equal
			}
			predicted := math.Pow(1-fail, float64(n-1))

			success := 0
			for trial := 0; trial < trials; trial++ {
				ch := markov.New(n, ell, cfg.Seed^uint64(pi)<<32^uint64(c)<<20^uint64(trial))
				next := ch.Step(ch.StateAt(pt.x0, pt.x1))
				if pt.toOnes && next.K1 == n {
					success++
				}
				if !pt.toOnes && next.K1 == 1 { // only the source holds 1
					success++
				}
			}
			tab.AddRow(pt.name, c, ell, fail, predicted, float64(success)/float64(trials))
		}
	}
	rep.AddTable(fmt.Sprintf("one-round consensus from Green (n = %d)", n), tab)
	rep.AddNote("Lemma 1 is asymptotic in the sample constant c (needs c > 2/δ²); " +
		"the observed all-consensus rate approaches 1 as c grows, matching the " +
		"exact per-agent tie/loss probability (tie failures use the Remark 2 upper bound)")
	return rep, nil
}

func runE06(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E06")

	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)
	trials := Pick(cfg, 200, 30)

	points := domainPoints(p, domain.KindPurple1, 300, Pick(cfg, 6, 3))
	tab := tablefmt.New("start (x_t, x_{t+1})", "trials", "→Green1", "→Green", "→elsewhere")
	for pi, pt := range points {
		toGreen1, toGreen, other := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			ch := markov.New(n, ell, cfg.Seed^uint64(pi)<<36^uint64(trial))
			next := ch.Step(ch.StateAt(pt[0], pt[1]))
			x0, x1 := ch.X(next)
			switch p.Classify(x0, x1) {
			case domain.KindGreen1:
				toGreen1++
				toGreen++
			case domain.KindGreen0:
				toGreen++
			default:
				other++
			}
		}
		tab.AddRow(fmt.Sprintf("(%.3f, %.3f)", pt[0], pt[1]), trials,
			float64(toGreen1)/float64(trials),
			float64(toGreen)/float64(trials),
			float64(other)/float64(trials))
	}
	rep.AddTable(fmt.Sprintf("one-step destination from Purple1 (n = %d, ℓ = %d)", n, ell), tab)
	rep.AddNote("Lemma 2: Purple1 → Green1 in one round w.h.p. " +
		"(the next fraction jumps near 1/2, gaining speed ≥ δ)")
	return rep, nil
}

func runE07(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E07")

	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)
	trials := Pick(cfg, 200, 30)

	points := domainPoints(p, domain.KindRed1, 600, Pick(cfg, 4, 2))
	bound := math.Pow(p.LogN(), 0.5+2*p.Delta)
	tab := tablefmt.New("start", "trials", "res. median", "res. max",
		"exits to Yellow∪Red", "bound log^{1/2+2δ}n")
	if len(points) == 0 {
		rep.AddNote("Red1 is empty at these parameters (λ_n·x ≥ δ everywhere); " +
			"this happens at small n where the contraction band vanishes")
		return rep, nil
	}
	for pi, pt := range points {
		var residences []float64
		badExits := 0
		for trial := 0; trial < trials; trial++ {
			ch := markov.New(n, ell, cfg.Seed^uint64(pi)<<34^uint64(trial))
			s := ch.StateAt(pt[0], pt[1])
			residence := 0
			for r := 0; r < 2000; r++ {
				x0, x1 := ch.X(s)
				k := p.Classify(x0, x1)
				if k != domain.KindRed1 {
					if k.Family() == domain.FamilyYellow || k.Family() == domain.FamilyRed {
						badExits++
					}
					break
				}
				residence++
				s = ch.Step(s)
			}
			residences = append(residences, float64(residence))
		}
		sum := stats.Summarize(residences)
		tab.AddRow(fmt.Sprintf("(%.3f, %.3f)", pt[0], pt[1]), trials,
			sum.Median, sum.Max, badExits, bound)
	}
	rep.AddTable(fmt.Sprintf("Red1 residence (n = %d, ℓ = %d)", n, ell), tab)
	rep.AddNote("Lemma 3: while in Red1, x_t contracts by (1−λ_n) per round, so " +
		"residence < log^{1/2+2δ} n and the exit avoids Yellow ∪ Red")
	return rep, nil
}

func runE08(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E08")

	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)
	trials := Pick(cfg, 200, 30)

	// The bounce: start from the deepest Cyan1 state, reached after a
	// Green0 consensus — everyone wrong except the source.
	inv := 1 / float64(n)
	exitBound := p.LogN() / math.Log(p.LogN())

	var exitRounds, growths []float64
	exitDest := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		ch := markov.New(n, ell, cfg.Seed^0xc7a1<<16^uint64(trial))
		s := ch.StateAt(inv, inv)
		prevX1 := inv
		for r := 0; r < 4000; r++ {
			s = ch.Step(s)
			x0, x1 := ch.X(s)
			k := p.Classify(x0, x1)
			if k != domain.KindCyan1 {
				exitRounds = append(exitRounds, float64(r+1))
				exitDest[k.String()]++
				break
			}
			if x1 > prevX1 && prevX1 > 0 {
				growths = append(growths, x1/prevX1)
			}
			prevX1 = x1
		}
	}

	tab := tablefmt.New("metric", "value")
	sumExit := stats.Summarize(exitRounds)
	tab.AddRow("exit rounds median", sumExit.Median)
	tab.AddRow("exit rounds p95", sumExit.P95)
	tab.AddRow("paper bound log n/log log n", exitBound)
	if len(growths) > 0 {
		sumG := stats.Summarize(growths)
		tab.AddRow("per-round growth factor median", sumG.Median)
		tab.AddRow("ℓ (growth scale = Θ(log n))", ell)
	}
	tab.AddRow("exit destinations", formatExits(exitDest))
	rep.AddTable(fmt.Sprintf("Cyan1 bounce-back from (1/n, 1/n) (n = %d, ℓ = %d)", n, ell), tab)
	rep.AddNote("Lemma 4: each Cyan1 round multiplies x by Θ(log n) " +
		"(agents seeing all-0 then one 1 adopt 1), so the chain leaves Cyan1 " +
		"within log n/log log n rounds, landing in Green1 ∪ Purple1")
	return rep, nil
}

func runE09(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E09")

	// Part 1: Yellow′ escape time scaling (Lemma 6 / Lemma 5 bound).
	ns := Pick(cfg, []int{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22}, []int{1 << 10, 1 << 13})
	trials := Pick(cfg, 120, 15)
	tab := tablefmt.New("n", "ℓ", "trials", "median", "p95", "max", "bound ~log^{5/2}n")
	medians := make([]float64, 0, len(ns))
	for _, n := range ns {
		n := n
		ell := core.SampleSize(n, core.DefaultC)
		p := domain.NewParams(n)
		times := parallelTimes(cfg, trials, func(trial int) float64 {
			ch := markov.New(n, ell, cfg.Seed^uint64(n)<<12^uint64(trial))
			s := ch.StateAt(0.5, 0.5)
			for r := 0; r < 100000; r++ {
				s = ch.Step(s)
				x0, x1 := ch.X(s)
				if !p.YellowPrimeContains(x0, x1) {
					return float64(r + 1)
				}
			}
			return 100000
		})
		sum := stats.Summarize(times)
		tab.AddRow(n, ell, trials, sum.Median, sum.P95, sum.Max,
			math.Pow(math.Log(float64(n)), 2.5))
		medians = append(medians, sum.Median)
	}
	rep.AddTable("escape time from Yellow′ starting at (1/2, 1/2)", tab)
	fit := stats.FitPolylog(ns, medians)
	rep.AddNote("polylog fit of escape medians: %.2f·(ln n)^%.2f (R²=%.3f); "+
		"paper upper bound exponent 5/2 — measured escapes are much faster, "+
		"consistent with the paper's remark that the analysis may be loose",
		fit.Coefficient, fit.Exponent, fit.R2)

	// Part 2: Lemma 7 — speed doubling in area A.
	n := Pick(cfg, 1<<16, 1<<12)
	ell := core.SampleSize(n, core.DefaultC)
	p := domain.NewParams(n)
	dblTrials := Pick(cfg, 400, 60)
	dblTab := tablefmt.New("start speed s", "trials",
		"P(speed doubles ∧ stays A∪outside)", "Lemma 7 bound 1−exp(−3ns²)")
	for si, speed := range []float64{0.01, 0.02, 0.05} {
		x := 0.5
		y := 0.5 + speed // in A1: y ≥ 1/2 and y−x ≥ x−1/2
		ok := 0
		for trial := 0; trial < dblTrials; trial++ {
			ch := markov.New(n, ell, cfg.Seed^uint64(si)<<44^uint64(trial))
			next := ch.Step(ch.StateAt(x, y))
			nx0, nx1 := ch.X(next)
			newSpeed := math.Abs(nx1 - nx0)
			area := p.ClassifyYellow(nx0, nx1)
			inAOrOut := area == domain.AreaA1 || area == domain.AreaOutside
			if newSpeed > 2*speed && inAOrOut {
				ok++
			}
		}
		bound := 1 - math.Exp(-3*float64(n)*speed*speed)
		dblTab.AddRow(speed, dblTrials, float64(ok)/float64(dblTrials), bound)
	}
	rep.AddTable(fmt.Sprintf("Lemma 7(a): speed doubling in A1 (n = %d, ℓ = %d)", n, ell), dblTab)
	rep.AddNote("Lemma 7(a) says the doubling event has probability at least " +
		"1−exp(−3n·s²) (for δ small); area A is the engine that launches the " +
		"chain out of Yellow′")
	return rep, nil
}
