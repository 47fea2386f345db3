package experiment

import (
	"fmt"
	"math"

	"passivespread/internal/adversary"
	"passivespread/internal/core"
	"passivespread/internal/markov"
	"passivespread/internal/sim"
	"passivespread/internal/stats"
	"passivespread/internal/tablefmt"
)

// E01 and E13 — the grid-shaped scaling experiments — live in the
// module root (experiments_scaling.go), where they run through the
// public Sweep layer instead of hand-rolled loops over internals.

// fetTrial runs one FET simulation and returns t_con, or cap when the run
// did not converge.
func fetTrial(n, ell int, init sim.Initializer, engine sim.EngineKind, shards int, seed uint64, cap int) float64 {
	res, err := sim.Run(sim.Config{
		N:           n,
		Protocol:    core.NewFET(ell),
		Init:        init,
		Correct:     sim.OpinionOne,
		Seed:        seed,
		MaxRounds:   cap,
		Engine:      engine,
		Parallelism: shards,
		Memory:      sim.Memory{Law: sim.MemoryUniform},
	})
	if err != nil {
		panic(err) // static config bug, not a runtime condition
	}
	if !res.Converged {
		return float64(cap)
	}
	return float64(res.Round)
}

// chainTrial runs one aggregate-chain simulation from the given grid
// fractions and returns the hitting time (or cap).
func chainTrial(n, ell int, x0, x1 float64, seed uint64, cap int) float64 {
	c := markov.New(n, ell, seed)
	rounds, ok := c.HittingTime(c.StateAt(x0, x1), cap)
	if !ok {
		return float64(cap)
	}
	return float64(rounds)
}

func runE14(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E14")

	ns := Pick(cfg, []int{256, 1024, 4096}, []int{256, 1024})
	trials := Pick(cfg, 30, 6)
	tab := tablefmt.New("n", "ℓ", "protocol", "median t_con", "p95", "max")
	for _, n := range ns {
		ell := core.SampleSize(n, core.DefaultC)
		cap := 800 * int(math.Log2(float64(n)))
		protocols := []sim.Protocol{core.NewFET(ell), core.NewSimpleTrend(ell)}
		for _, proto := range protocols {
			proto := proto
			times := parallelTimes(cfg, trials, func(trial int) float64 {
				res, err := sim.Run(sim.Config{
					N:         n,
					Protocol:  proto,
					Init:      adversary.AllWrong{Correct: sim.OpinionOne},
					Correct:   sim.OpinionOne,
					Seed:      cfg.Seed ^ uint64(n)<<18 ^ uint64(trial),
					MaxRounds: cap,
					Memory:    sim.Memory{Law: sim.MemoryUniform},
				})
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					return float64(cap)
				}
				return float64(res.Round)
			})
			s := stats.Summarize(times)
			tab.AddRow(n, ell, proto.Name(), s.Median, s.P95, s.Max)
		}
	}
	rep.AddTable("FET vs SimpleTrend from all-wrong", tab)
	rep.AddNote("the partition into independent halves (Protocol 1) is an analysis " +
		"device; both variants converge empirically, as §1.3 anticipates")
	return rep, nil
}

func runE15(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E15")

	n := Pick(cfg, 4096, 512)
	trials := Pick(cfg, 30, 6)
	ell := core.SampleSize(n, core.DefaultC)
	cap := 400 * int(math.Log2(float64(n)))
	tab := tablefmt.New("sources k", "median t_con", "p95", "max")
	for _, k := range []int{1, 2, 4, 8, 16} {
		k := k
		times := parallelTimes(cfg, trials, func(trial int) float64 {
			res, err := sim.Run(sim.Config{
				N:         n,
				Sources:   k,
				Protocol:  core.NewFET(ell),
				Init:      adversary.AllWrong{Correct: sim.OpinionOne},
				Correct:   sim.OpinionOne,
				Seed:      cfg.Seed ^ uint64(k)<<28 ^ uint64(trial),
				MaxRounds: cap,
				Memory:    sim.Memory{Law: sim.MemoryUniform},
			})
			if err != nil {
				panic(err)
			}
			if !res.Converged {
				return float64(cap)
			}
			return float64(res.Round)
		})
		s := stats.Summarize(times)
		tab.AddRow(k, s.Median, s.P95, s.Max)
	}
	rep.AddTable(fmt.Sprintf("n = %d, all-wrong start", n), tab)
	rep.AddNote("§5: a constant number of agreeing sources is supported; " +
		"more sources can only help")
	return rep, nil
}

func runE16(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E16")

	n := Pick(cfg, 1024, 256)
	trials := Pick(cfg, 40, 8)
	ell := core.SampleSize(n, core.DefaultC)
	cap := 800 * int(math.Log2(float64(n)))

	tab := tablefmt.New("engine", "trials", "mean", "median", "p95")
	samples := map[string][]float64{}
	run := func(name string, f func(trial int) float64) {
		times := parallelTimes(cfg, trials, f)
		s := stats.Summarize(times)
		tab.AddRow(name, trials, s.Mean, s.Median, s.P95)
		samples[name] = times
	}
	run("agent-exact", func(trial int) float64 {
		return fetTrial(n, ell, adversary.AllWrong{Correct: sim.OpinionOne},
			sim.EngineAgentExact, 0, cfg.Seed^0x11<<32^uint64(trial), cap)
	})
	run("agent-fast", func(trial int) float64 {
		return fetTrial(n, ell, adversary.AllWrong{Correct: sim.OpinionOne},
			sim.EngineAgentFast, 0, cfg.Seed^0x22<<32^uint64(trial), cap)
	})
	run("agent-fast-sharded", func(trial int) float64 {
		return fetTrial(n, ell, adversary.AllWrong{Correct: sim.OpinionOne},
			sim.EngineAgentFast, 4, cfg.Seed^0x44<<32^uint64(trial), cap)
	})
	run("aggregate-occupancy", func(trial int) float64 {
		return fetTrial(n, ell, adversary.AllWrong{Correct: sim.OpinionOne},
			sim.EngineAggregate, 0, cfg.Seed^0x55<<32^uint64(trial), cap)
	})
	run("aggregate-chain", func(trial int) float64 {
		return chainTrial(n, ell, 0, 0, cfg.Seed^0x33<<32^uint64(trial), cap)
	})
	rep.AddTable(fmt.Sprintf("n = %d, all-wrong start", n), tab)

	// Distribution-level comparison: a Kolmogorov–Smirnov test between
	// every engine pair at α = 0.01.
	names := []string{"agent-exact", "agent-fast", "agent-fast-sharded", "aggregate-occupancy", "aggregate-chain"}
	ksTab := tablefmt.New("pair", "KS statistic", "critical (α=0.01)", "same distribution")
	allSame := true
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := samples[names[i]], samples[names[j]]
			d := stats.KSStatistic(a, b)
			crit := stats.KSCriticalValue(len(a), len(b), 0.01)
			same := d <= crit
			allSame = allSame && same
			ksTab.AddRow(names[i]+" vs "+names[j], d, crit, same)
		}
	}
	rep.AddTable("Kolmogorov–Smirnov pairwise comparison of t_con distributions", ksTab)
	if allSame {
		rep.AddNote("all engine pairs pass the KS test: the three implementations sample the same process")
	} else {
		rep.AddNote("WARNING: KS test rejected an engine pair")
	}
	return rep, nil
}

func runE17(cfg Config) (*Report, error) {
	rep := NewReport(All(), "E17")

	tab := tablefmt.New("n", "ℓ = ⌈3·log₂n⌉", "samples/round (2ℓ)",
		"memory bits (⌈log₂(ℓ+1)⌉)", "message bits")
	for _, n := range []int{256, 4096, 65536, 1 << 20, 1 << 30} {
		f := core.NewFET(core.SampleSize(n, core.DefaultC))
		tab.AddRow(n, f.Ell(), f.SamplesPerRound(), f.MemoryBits(), 1)
	}
	rep.AddTable("FET resources (message bits = 1: passive communication)", tab)
	rep.AddNote("Theorem 1: ℓ = O(log n) samples, O(log ℓ) = O(log log n) bits of memory; " +
		"the table shows the concrete constants used in this reproduction")
	return rep, nil
}
