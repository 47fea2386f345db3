package core

import (
	"testing"

	"passivespread/internal/adversary"
	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

func TestStepOccupancyConservesPopulation(t *testing.T) {
	for _, proto := range []sim.AggregateProtocol{NewFET(12), NewSimpleTrend(12)} {
		src := rng.New(3)
		occ := sim.NewOccupancy(proto.AggregateStates())
		occ.Counts[0][0] = 700
		occ.Counts[1][5] = 200
		occ.Counts[1][12] = 100
		next := sim.NewOccupancy(proto.AggregateStates())
		for round := 0; round < 50; round++ {
			next.Zero()
			proto.StepOccupancy(occ, next, 0.37, src)
			occ, next = next, occ
			if got := occ.Total(); got != 1000 {
				t.Fatalf("%s: population leaked to %d at round %d", proto.Name(), got, round)
			}
		}
	}
}

func TestStepOccupancyDegenerateFractions(t *testing.T) {
	// x = 0 and x = 1 must not produce NaN-driven panics or leaks: every
	// comparison count is deterministic there.
	for _, proto := range []sim.AggregateProtocol{NewFET(8), NewSimpleTrend(8)} {
		for _, x := range []float64{0, 1} {
			src := rng.New(1)
			occ := sim.NewOccupancy(proto.AggregateStates())
			occ.Counts[0][3] = 50
			occ.Counts[1][0] = 50
			next := sim.NewOccupancy(proto.AggregateStates())
			proto.StepOccupancy(occ, next, x, src)
			if next.Total() != 100 {
				t.Fatalf("%s at x=%v: population %d", proto.Name(), x, next.Total())
			}
			// At x = 1 every count is ℓ > any smaller stored count: all
			// agents with state < ℓ adopt 1 and store ℓ.
			if x == 1 && next.Counts[1][8] != 100 {
				t.Fatalf("%s at x=1: occupancy %+v", proto.Name(), next.Counts)
			}
		}
	}
}

func TestSimpleTrendAggregateConverges(t *testing.T) {
	res, err := sim.Run(sim.Config{
		N:         2048,
		Protocol:  NewSimpleTrend(SampleSize(2048, DefaultC)),
		Init:      adversary.AllWrong{Correct: sim.OpinionOne},
		Correct:   sim.OpinionOne,
		Engine:    sim.EngineAggregate,
		Seed:      7,
		MaxRounds: 8000,
		Memory:    sim.Memory{Law: sim.MemoryUniform},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SimpleTrend aggregate run did not converge: %+v", res)
	}
}

func TestFETAggregateMatchesAgentMean(t *testing.T) {
	// Cheap distributional sanity check at small n (the full KS
	// cross-check lives in the root engines test): the mean t_con of the
	// occupancy engine must land near the agent engine's.
	const n, trials = 1024, 40
	mean := func(engine sim.EngineKind, seedBase uint64) float64 {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			res, err := sim.Run(sim.Config{
				N:         n,
				Protocol:  NewFET(SampleSize(n, DefaultC)),
				Init:      adversary.AllWrong{Correct: sim.OpinionOne},
				Correct:   sim.OpinionOne,
				Engine:    engine,
				Seed:      seedBase + uint64(trial),
				MaxRounds: 4000,
				Memory:    sim.Memory{Law: sim.MemoryUniform},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("engine %v trial %d did not converge", engine, trial)
			}
			sum += float64(res.Round)
		}
		return sum / trials
	}
	agent := mean(sim.EngineAgentFast, 100)
	aggregate := mean(sim.EngineAggregate, 9000)
	if ratio := agent / aggregate; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("mean t_con diverges: agent %v vs aggregate %v", agent, aggregate)
	}
}
