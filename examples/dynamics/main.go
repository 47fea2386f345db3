// Dynamics: side-by-side comparison of FET against classical consensus
// dynamics (Voter, 3-Majority, Undecided-State) and the Section 1.4
// clocked baseline, on the source-driven self-stabilizing
// bit-dissemination task.
//
// The scenario is adversarial: the population starts with a 9:1 majority
// on the WRONG opinion. Consensus dynamics lock onto the initial majority
// and never recover within a polylog horizon; the clocked baseline works
// but needs clocks (non-passive messages once self-stabilization is
// required); FET solves the task with passive 1-bit observations alone.
package main

import (
	"fmt"
	"log"
	"math"

	"passivespread"
)

const n = 1024

func main() {
	horizon := 40 * int(math.Pow(math.Log2(n), 2))
	ell := passivespread.SampleSize(n)
	fmt.Printf("task: %d agents, 1 source holding 1, start = 90%% on opinion 0\n", n)
	fmt.Printf("horizon: %d rounds (polylog scale)\n\n", horizon)
	fmt.Printf("%-28s %-10s %s\n", "protocol", "passive?", "outcome")

	protocols := []struct {
		proto   passivespread.Protocol
		passive string
	}{
		{passivespread.Voter(), "yes"},
		{passivespread.ThreeMajority(), "yes"},
		{passivespread.UndecidedState(), "yes"},
		{passivespread.NewFET(ell), "yes"},
	}
	for i, p := range protocols {
		res, err := passivespread.Run(passivespread.Config{
			N:         n,
			Protocol:  p.proto,
			Init:      passivespread.FractionInit(0.1),
			Correct:   passivespread.OpinionOne,
			Seed:      uint64(10 + i),
			MaxRounds: horizon,
			Memory:    passivespread.Memory{Law: passivespread.MemoryUniform},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-10s %s\n", p.proto.Name(), p.passive, outcome(res.Converged, res.Round, res.FinalX))
	}

	// The clocked baseline, in both clock models.
	for _, m := range []struct {
		mode   passivespread.ClockedMode
		desync bool
		label  string
	}{
		{passivespread.ModeSharedClock, false, "Clocked phases (shared clock)"},
		{passivespread.ModeLocalClocks, true, "Clocked phases (desynced)"},
	} {
		res, err := passivespread.RunClocked(passivespread.ClockedConfig{
			N:            n,
			Correct:      passivespread.OpinionOne,
			Mode:         m.mode,
			DesyncClocks: m.desync,
			Init:         passivespread.FractionInit(0.1),
			Seed:         20,
			MaxRounds:    horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
		passive := "yes*"
		if m.mode == passivespread.ModeLocalClocks {
			passive = "NO"
		}
		fmt.Printf("%-28s %-10s %s\n", m.label, passive, outcome(res.Converged, res.Round, res.FinalX))
	}

	fmt.Println("\n*  shared clocks presume global time, which self-stabilization forbids;")
	fmt.Println("   restoring clocks via messages (desynced row) breaks passive communication.")
	fmt.Println("   majority-style dynamics lock onto the wrong initial majority; the voter")
	fmt.Println("   model drifts to the source's zealot opinion only after Θ(n) rounds.")
	fmt.Println("   FET alone is passive, self-stabilizing, and polylog-fast.")
}

func outcome(converged bool, round int, finalX float64) string {
	if converged {
		return fmt.Sprintf("reached source opinion at round %d", round)
	}
	return fmt.Sprintf("stuck at x = %.3f (never adopted the source bit)", finalX)
}
