package passivespread

import (
	"context"
	"fmt"
	"math"

	"passivespread/internal/experiment"
	"passivespread/internal/stats"
)

// The grid-shaped scaling experiments run through the public Sweep
// layer: E01 (Theorem 1 convergence-time scaling) sweeps the population
// axis across scenarios and engines, E13 (sample-size ablation) sweeps
// the ℓ axis. They live at the module root — not in internal/experiment
// — because they are consumers of the Sweep API, and they double as its
// full-scale exercise.

// namedScenarios resolves built-in presets; a missing name is a
// programming error.
func namedScenarios(names ...string) []Scenario {
	out := make([]Scenario, len(names))
	for i, name := range names {
		sc, ok := ScenarioByName(name)
		if !ok {
			panic(fmt.Sprintf("experiment: no scenario preset %q", name))
		}
		out[i] = sc
	}
	return out
}

func runE01(cfg experiment.Config) (*experiment.Report, error) {
	rep := experiment.NewReport(sweepExperiments(), "E01")

	ns := experiment.Pick(cfg, []int{256, 1024, 4096, 16384, 65536}, []int{256, 1024, 4096})
	trials := experiment.Pick(cfg, 40, 8)
	scenarios := namedScenarios(DefaultScenario, "half-split", "uniform")

	sweep, err := NewSweep(SweepSpec{
		Ns:         ns,
		Scenarios:  scenarios,
		Replicates: trials,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		return nil, err
	}

	// Render n-major (the paper's presentation) from the scenario-major
	// rows, and collect the worst-case medians for the shape check.
	byCell := map[[2]string]SweepRow{}
	for _, row := range report.Rows {
		byCell[[2]string{row.Scenario, fmt.Sprint(row.N)}] = row
	}
	agentTab := NewTable("n", "ℓ", "scenario", "trials", "mean", "median", "p95", "max")
	medians := make([]float64, 0, len(ns))
	for _, n := range ns {
		for _, sc := range scenarios {
			row := byCell[[2]string{sc.Name, fmt.Sprint(n)}]
			agentTab.AddRow(row.N, row.Ell, row.Scenario, row.Replicates, row.Mean, row.Median, row.P95, row.Max)
			if sc.Name == DefaultScenario {
				medians = append(medians, row.Median)
			}
		}
	}
	rep.AddTable("agent-engine convergence times (rounds)", agentTab)

	// Polylog fit on the worst-case medians: the Theorem 1 shape check.
	fit := stats.FitPolylog(ns, medians)
	rep.AddNote("polylog fit (worst-case medians): t_con ≈ %.2f·(ln n)^%.2f, R²=%.3f; paper upper bound exponent 5/2",
		fit.Coefficient, fit.Exponent, fit.R2)

	// The Markov-chain engine extends the same sweep far past
	// agent-engine reach on the same seed-derivation contract.
	chainNs := experiment.Pick(cfg,
		[]int{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26},
		[]int{1 << 10, 1 << 14})
	chainTrials := experiment.Pick(cfg, 30, 6)
	chainSweep, err := NewSweep(SweepSpec{
		Ns:         chainNs,
		Engines:    []EngineKind{EngineMarkovChain},
		Replicates: chainTrials,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed ^ 0xabcd,
	})
	if err != nil {
		return nil, err
	}
	chainReport, err := chainSweep.Run(context.Background())
	if err != nil {
		return nil, err
	}
	chainTab := NewTable("n", "ℓ", "trials", "mean", "median", "p95")
	chainMedians := make([]float64, 0, len(chainNs))
	for _, row := range chainReport.Rows {
		chainTab.AddRow(row.N, row.Ell, row.Replicates, row.Mean, row.Median, row.P95)
		chainMedians = append(chainMedians, row.Median)
	}
	rep.AddTable("aggregate-chain convergence times from all-wrong (rounds)", chainTab)
	chainFit := stats.FitPolylog(chainNs, chainMedians)
	rep.AddNote("polylog fit (chain, worst case): t_con ≈ %.2f·(ln n)^%.2f, R²=%.3f",
		chainFit.Coefficient, chainFit.Exponent, chainFit.R2)
	return rep, nil
}

func runE13(cfg experiment.Config) (*experiment.Report, error) {
	rep := experiment.NewReport(sweepExperiments(), "E13")

	n := experiment.Pick(cfg, 4096, 1024)
	trials := experiment.Pick(cfg, 30, 6)
	cap := 3000 * int(math.Log2(float64(n)))
	ells := []int{1, 2, 4, 8, 16, 24, 0} // 0 = the default ℓ = ⌈3·log₂ n⌉
	if cfg.Smoke {
		// The ℓ ∈ {1, 2} heavy tails dominate the quick run (tens of
		// seconds at the full cap); the smoke scale keeps the shape of
		// the sweep without them.
		cap = 200 * int(math.Log2(float64(n)))
		ells = []int{4, 8, 0}
	}

	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{n},
		Ells:       ells,
		Replicates: trials,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
		MaxRounds:  cap,
	})
	if err != nil {
		return nil, err
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		return nil, err
	}

	tab := NewTable("ℓ", "samples/round", "trials", "median t_con", "p95", "converged")
	for _, row := range report.Rows {
		tab.AddRow(row.Ell, 2*row.Ell, row.Replicates, row.Median, row.P95,
			fmt.Sprintf("%d/%d", row.Converged, row.Replicates))
	}
	rep.AddTable(fmt.Sprintf("n = %d, all-wrong start", n), tab)
	rep.AddNote("the paper leaves poly-log convergence with O(1) samples open (§5); " +
		"small constant ℓ still converges empirically but with heavier tails")
	return rep, nil
}
