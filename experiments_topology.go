package passivespread

import (
	"context"
	"fmt"
	"strings"

	"passivespread/internal/experiment"
)

// E23 compares FET's convergence-time distribution across observation
// topologies at a fixed population — the first experiment outside the
// paper's uniform-mixing assumption. It lives at the module root, like
// E01/E13, because it is a consumer of the public Sweep API (the
// Topologies axis it exercises is the topology layer's full-scale test).

func runE23(cfg experiment.Config) (*experiment.Report, error) {
	rep := experiment.NewReport(sweepExperiments(), "E23")

	// The population is a perfect square so the torus is admissible.
	n := experiment.Pick(cfg, 4096, 1024)
	trials := experiment.Pick(cfg, 40, 6)
	// The diameter-bound rows (ring, torus) run to the cap when they do
	// not converge, so the quick scale tightens it explicitly.
	maxRounds := experiment.Pick(cfg, 0, 1500) // 0 = default 400·log₂ n
	topologies := []Topology{
		nil, // complete: the paper's model, the baseline row
		RandomRegular(8),
		RandomRegular(64), // degree-scaling probe: does denser mixing restore FET?
		SmallWorld(4, 0.1),
		DynamicRewire(8, 0.2),
		Torus(),
		Ring(2),
	}
	if cfg.Smoke {
		// The censored rows run to the cap and dominate the runtime; the
		// smoke scale keeps the baseline and the two random digraphs.
		n = 1024
		trials = 4
		maxRounds = 400
		topologies = []Topology{nil, RandomRegular(8), RandomRegular(64)}
	}

	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{n},
		Topologies: topologies,
		Replicates: trials,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
		MaxRounds:  maxRounds,
	})
	if err != nil {
		return nil, err
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		return nil, err
	}

	tab := NewTable("topology", "trials", "converged", "mean", "median", "p95", "max")
	var completeMedian float64
	var survived, censored []string
	for _, row := range report.Rows {
		tab.AddRow(row.Topology, row.Replicates,
			fmt.Sprintf("%d/%d", row.Converged, row.Replicates),
			row.Mean, row.Median, row.P95, row.Max)
		if row.Topology == "complete" {
			completeMedian = row.Median
			continue
		}
		// A topology "survives" when a majority of its trials converge;
		// censored rows carry the round cap as their quantiles and must
		// not be read as convergence times.
		if 2*row.Converged > row.Replicates {
			label := row.Topology
			if completeMedian > 0 {
				label = fmt.Sprintf("%s (median ×%.1f vs complete)", row.Topology, row.Median/completeMedian)
			}
			survived = append(survived, label)
		} else {
			censored = append(censored, row.Topology)
		}
	}
	rep.AddTable(fmt.Sprintf("convergence-time quantiles by observation topology "+
		"(n = %d, worst-case start; non-converged trials censored at the round cap)", n), tab)

	if len(survived) > 0 {
		rep.AddNote("converged in a majority of trials: %s", strings.Join(survived, ", "))
	}
	if len(censored) > 0 {
		rep.AddNote("did not converge within the cap: %s — the trend signal needs enough mixing; "+
			"a single source cannot bootstrap it through constant-degree or diameter-bound graphs at this scale",
			strings.Join(censored, ", "))
	}
	rep.AddNote("Theorem 1 assumes uniform mixing (the complete row); the axis turns that assumption " +
		"into data — structure, not just size, decides whether self-stabilizing dissemination survives")
	return rep, nil
}
