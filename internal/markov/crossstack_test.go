package markov

import (
	"math"
	"testing"

	"passivespread/internal/adversary"
	"passivespread/internal/core"
	"passivespread/internal/sim"
)

// TestExactHittingTimeMatchesAgentEngine is the cross-stack ground-truth
// check: the value-iteration solution of the Observation-1 chain must
// predict the agent-level simulator's mean convergence time. It ties
// together dist (exact probabilities), markov (the chain and the solver),
// core (the protocol), adversary (state seeding), and sim (the engine).
func TestExactHittingTimeMatchesAgentEngine(t *testing.T) {
	const (
		n      = 32
		trials = 1500
	)
	ell := core.SampleSize(n, core.DefaultC) // 15

	c := New(n, ell, 1)
	exact, err := c.ExactHittingTimeFrom(State{K0: 0, K1: 1}, 1e-10, 100000)
	if err != nil {
		t.Fatal(err)
	}

	// Agent engine from the matching start: all non-sources wrong, and
	// FET memories seeded with Binomial(ℓ, 0) = 0 — i.e. conditioned on
	// the previous round also having been all-wrong, exactly (K0, K1) =
	// (0, 1).
	gs := adversary.GridStart{X0: 0, X1: 1.0 / n}
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		res, err := sim.Run(sim.Config{
			N:         n,
			Protocol:  core.NewFET(ell),
			Init:      adversary.AllWrong{Correct: sim.OpinionOne},
			Correct:   sim.OpinionOne,
			Seed:      uint64(9000 + trial),
			MaxRounds: 100000,
			Memory:    gs.Memory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		sum += float64(res.Round)
	}
	agentMean := sum / trials

	// The chain's h counts rounds to *enter* (n, n); the agent t_con is
	// the first round of the final all-correct run, one round earlier
	// than the (n, n) entry (which needs two consecutive all-correct
	// rounds). Allow that unit offset plus sampling error.
	if math.Abs(agentMean-(exact-1)) > 0.15*exact+0.5 {
		t.Fatalf("exact hitting time %v (−1 for the witness offset) vs agent mean %v",
			exact, agentMean)
	}
}
