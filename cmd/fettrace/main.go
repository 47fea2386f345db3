// Command fettrace runs one FET dissemination and annotates every round
// of the trajectory with the Figure 1a domain of the state (x_t, x_{t+1}),
// its Figure 2 area, and its speed — the path-through-domains narrative of
// Figure 1b, made observable.
//
// Usage:
//
//	fettrace -n 4096 [-x0 0] [-x1 0] [-seed 1] [-csv]
//
// x0 and x1 place the chain at a chosen grid point (x0 is emulated by
// stored counts drawn Binomial(ℓ, x0), the binomial memory law); the
// default (0, 0) is the all-wrong start.
package main

import (
	"flag"
	"fmt"
	"os"

	"passivespread"
)

func main() {
	var (
		n      = flag.Int("n", 4096, "population size")
		x0     = flag.Float64("x0", 0, "emulated previous-round fraction x_t")
		x1     = flag.Float64("x1", 0, "starting fraction x_{t+1}")
		seed   = flag.Uint64("seed", 1, "random seed")
		rounds = flag.Int("rounds", 2000, "round cap")
		asCSV  = flag.Bool("csv", false, "emit CSV instead of the table")
	)
	flag.Parse()

	if *x0 < 0 || *x0 > 1 || *x1 < 0 || *x1 > 1 {
		fmt.Fprintln(os.Stderr, "x0 and x1 must lie in [0, 1]")
		os.Exit(2)
	}

	ell := passivespread.SampleSize(*n)
	gs := passivespread.GridStart{X0: *x0, X1: *x1}
	res, err := passivespread.Run(passivespread.Config{
		N:                *n,
		Protocol:         passivespread.NewFET(ell),
		Init:             gs.Init(),
		Correct:          passivespread.OpinionOne,
		Seed:             *seed,
		MaxRounds:        *rounds,
		Memory:           gs.Memory(),
		RecordTrajectory: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tr := passivespread.TraceFromTrajectory(passivespread.NewDomainParams(*n), *x0, res.Trajectory)
	if *asCSV {
		fmt.Print(tr.CSV())
	} else {
		fmt.Printf("n = %d, ℓ = %d, start (x_t, x_{t+1}) = (%.3f, %.3f), seed %d\n\n",
			*n, ell, *x0, *x1, *seed)
		fmt.Print(tr.String())
		fmt.Printf("\npath: ")
		for i, k := range tr.KindSequence() {
			if i > 0 {
				fmt.Print(" → ")
			}
			fmt.Print(k)
		}
		fmt.Println()
	}
	if res.Converged {
		if !*asCSV {
			fmt.Printf("converged: t_con = %d\n", res.Round)
		}
	} else {
		fmt.Fprintf(os.Stderr, "not converged within %d rounds\n", res.Rounds)
		os.Exit(1)
	}
}
