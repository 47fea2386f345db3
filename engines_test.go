package passivespread

import (
	"context"
	"reflect"
	"testing"

	"passivespread/internal/stats"
)

// TestShardedRoundsBitIdentical: sharding is a schedule, not a sampling
// law — both agent engines return byte-identical Results for the same
// seed at every shard count (Parallelism), on the real FET protocol from
// the worst-case start, under uniform mixing, on a packed power-of-two
// graph and on a noisy ring (the generic agent sweep).
func TestShardedRoundsBitIdentical(t *testing.T) {
	cells := []struct {
		topology string
		noise    float64
	}{{"complete", 0}, {"random-regular:8", 0}, {"ring:2", 0.05}}
	for _, engine := range []EngineKind{EngineAgentFast, EngineAgentExact} {
		for _, cell := range cells {
			tp, err := ParseTopology(cell.topology)
			if err != nil {
				t.Fatal(err)
			}
			n := 1024
			base := Config{
				N:                n,
				Protocol:         NewFET(SampleSize(n)),
				Init:             AllWrong(OpinionOne),
				Correct:          OpinionOne,
				Engine:           engine,
				Topology:         tp,
				NoiseEps:         cell.noise,
				Seed:             9,
				MaxRounds:        200,
				Memory:           Memory{Law: MemoryUniform},
				RecordTrajectory: true,
			}
			var ref Result
			for _, p := range []int{0, 1, 2, 4, 13} {
				cfg := base
				cfg.Parallelism = p
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p == 0 {
					ref = got
				} else if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%v on %s (ε = %v): P=%d diverged from one shard:\none:     %+v\nsharded: %+v",
						engine, cell.topology, cell.noise, p, ref, got)
				}
			}
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
		N:         n,
		Sources:   1,
		Correct:   OpinionOne,
		Protocol:  NewFET(SampleSize(n)),
		Init:      AllWrong(OpinionOne),
		Seed:      2,
		MaxRounds: DefaultMaxRounds(n),
		Engine:    EngineAggregate,
		Memory:    Memory{Law: MemoryUniform},
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
