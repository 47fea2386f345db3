package passivespread

import (
	"context"
	"reflect"
	"testing"

	"passivespread/internal/stats"
)

// TestParallelEngineBitIdentical: the acceptance bar for the parallel
// engine — byte-identical Results to the sequential fast engine for the
// same seed at every parallelism level, on the real FET protocol under
// the worst-case start.
func TestParallelEngineBitIdentical(t *testing.T) {
	base := Options{
		N:                4096,
		Seed:             9,
		RecordTrajectory: true,
	}
	ref, err := Disseminate(base)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatalf("reference run did not converge: %+v", ref)
	}
	for _, workers := range []int{0, 1, 2, 4, 13} {
		opts := base
		opts.Engine = EngineAgentParallel
		opts.Parallelism = workers
		got, err := Disseminate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d diverged from the fast engine:\nfast:     %+v\nparallel: %+v",
				workers, ref, got)
		}
	}
}

// convergenceSample collects t_con over independent seeds for one engine.
func convergenceSample(t *testing.T, engine EngineKind, n, trials int, seedBase uint64) []float64 {
	t.Helper()
	out := make([]float64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		res, err := Disseminate(Options{
			N:      n,
			Seed:   seedBase + uint64(trial),
			Engine: engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("engine %v trial %d did not converge", engine, trial)
		}
		out = append(out, float64(res.Round))
	}
	return out
}

// TestAggregateEngineMatchesAgentLevelKS: the occupancy engine must
// sample the same convergence-time distribution as the agent-level
// engine. Kolmogorov–Smirnov cross-check at n = 2¹² under the worst-case
// start (all wrong, corrupted memories).
func TestAggregateEngineMatchesAgentLevelKS(t *testing.T) {
	n := 1 << 12
	trials := 100
	if testing.Short() {
		trials = 30
	}
	agent := convergenceSample(t, EngineAgentFast, n, trials, 1000)
	aggregate := convergenceSample(t, EngineAggregate, n, trials, 500000)

	d := stats.KSStatistic(agent, aggregate)
	crit := stats.KSCriticalValue(len(agent), len(aggregate), 0.001)
	if d > crit {
		t.Fatalf("aggregate vs agent-level t_con distributions differ: KS %v > critical %v\nagent: %v\naggregate: %v",
			d, crit, agent, aggregate)
	}
}

// TestAggregateEngineHugePopulation: a worst-case dissemination at
// n = 10⁸ must complete through the public API (the hugescale example's
// headline claim). The occupancy engine makes this a sub-second run.
func TestAggregateEngineHugePopulation(t *testing.T) {
	res, err := Disseminate(Options{
		N:      100_000_000,
		Seed:   1,
		Engine: EngineAggregate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("n = 10⁸ worst-case run did not converge: %+v", res)
	}
	if res.Round < 2 || res.Round > 100 {
		t.Fatalf("t_con = %d at n = 10⁸, outside the plausible polylog band", res.Round)
	}
}

// TestAggregateEngineMillionNearAbsorption replays the fetsim study
// (-engine aggregate -n 1000000 -replicates 40 -seed 2 -init all-wrong)
// that once panicked: near absorption at ℓ = 60 the observed fraction's
// complement to the ℓ-th power is subnormal, and the occupancy step's
// binomial pmf came out 1.7·10⁻⁷ off unit mass.
func TestAggregateEngineMillionNearAbsorption(t *testing.T) {
	const n = 1_000_000
	cfg := Config{
		N:             n,
		Sources:       1,
		Correct:       OpinionOne,
		Protocol:      NewFET(SampleSize(n)),
		Init:          AllWrong(OpinionOne),
		Seed:          2,
		MaxRounds:     DefaultMaxRounds(n),
		Engine:        EngineAggregate,
		CorruptStates: true,
	}
	study, err := NewStudy(StudySpec{Replicates: 40, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	report, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if conv := report.Convergence; conv.Converged != conv.Replicates {
		t.Fatalf("converged %d/%d", conv.Converged, conv.Replicates)
	}
}
