// Example sweep draws a small phase diagram with the root Sweep API: FET
// success rate and median convergence time over a population × scenario
// grid, streamed as cells finish and rendered as a CSV artifact at the
// end.
//
// The core is three lines — spec, NewSweep, Run:
//
//	sweep, _ := passivespread.NewSweep(passivespread.SweepSpec{
//		Ns: []int{256, 1024, 4096}, Replicates: 24, Seed: 7})
//	report, _ := sweep.Run(context.Background())
//	fmt.Print(report.CSV())
//
// This example additionally crosses the scenario axis (worst case,
// observation noise, a mid-run environment flip) and uses Stream to show
// progress, which is how a long-running phase-diagram job would consume
// it. Rows are bit-identical for any worker count: cell c's study runs
// with root seed StreamSeed(7, c), never anything scheduling-dependent.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"passivespread"
)

func main() {
	scenarios := make([]passivespread.Scenario, 0, 3)
	for _, name := range []string{"worst-case", "noisy", "trend-flip"} {
		sc, ok := passivespread.ScenarioByName(name)
		if !ok {
			log.Fatalf("no scenario preset %q", name)
		}
		scenarios = append(scenarios, sc)
	}

	sweep, err := passivespread.NewSweep(passivespread.SweepSpec{
		Ns:         []int{256, 1024, 4096},
		Scenarios:  scenarios,
		Replicates: 24,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	cells := sweep.Cells()
	fmt.Printf("sweeping %d cells × %d replicates across %d workers\n",
		len(cells), sweep.Replicates(), sweep.Workers())

	var rows []passivespread.SweepRow
	for row := range sweep.Stream(context.Background()) {
		rows = append(rows, row)
		fmt.Printf("  [%d/%d] %-10s n=%-5d success %3.0f%%  median t_con %.0f\n",
			len(rows), len(cells), row.Scenario, row.N, 100*row.SuccessRate, row.Median)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cell < rows[j].Cell })

	report := &passivespread.SweepReport{Cells: len(cells), Replicates: sweep.Replicates(), Rows: rows}
	fmt.Println("\nCSV artifact:")
	fmt.Print(report.CSV())
}
