package sim

import (
	"errors"
	"reflect"
	"testing"

	"passivespread/internal/rng"
)

// TestParallelBitIdenticalAcrossWorkerCounts: the fast engine must
// produce byte-identical results at every shard count (Parallelism) —
// each agent owns its RNG stream, so sharding cannot change any draw.
func TestParallelBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, proto := range []Protocol{
		majorityProtocol{m: 9},             // exercises the tabulated CountOnes path
		infectProtocol{target: OpinionOne}, // exercises the Sample path
	} {
		base := Config{
			N:                500,
			Protocol:         proto,
			Init:             halfInit{},
			Correct:          OpinionOne,
			Seed:             42,
			MaxRounds:        300,
			RecordTrajectory: true,
		}
		ref, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7, 64} {
			cfg := base
			cfg.Parallelism = workers
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s: P=%d diverged from one shard:\none:     %+v\nsharded: %+v",
					proto.Name(), workers, ref, got)
			}
		}
	}
}

// trendFixture is a minimal aggregate-capable protocol for engine-level
// tests: a FET-shaped rule with state = stored count.
type trendFixture struct{ ell int }

func (p trendFixture) Name() string       { return "trend-fixture" }
func (p trendFixture) SampleSizes() []int { return []int{p.ell} }
func (p trendFixture) NewAgent(*rng.Source) Agent {
	return &trendFixtureAgent{ell: p.ell}
}
func (p trendFixture) AggregateStates() int { return p.ell + 1 }

func (p trendFixture) StepOccupancy(occ, next *Occupancy, xObs float64, src *rng.Source) {
	// Distributionally exact mirror of the per-agent rule below, written
	// naively (per-agent loop over the occupancy) — fine for tests.
	tab := rng.NewBinomialCDF(p.ell, xObs)
	for o := 0; o < 2; o++ {
		for s, m := range occ.Counts[o] {
			for a := 0; a < m; a++ {
				cmp := tab.Sample(src)
				store := tab.Sample(src)
				op := o
				switch {
				case cmp > s:
					op = 1
				case cmp < s:
					op = 0
				}
				next.Counts[op][store]++
			}
		}
	}
}

type trendFixtureAgent struct {
	ell  int
	prev int
}

func (a *trendFixtureAgent) Step(cur byte, obs Observation) byte {
	cmp := obs.CountOnes(a.ell)
	store := obs.CountOnes(a.ell)
	next := cur
	switch {
	case cmp > a.prev:
		next = OpinionOne
	case cmp < a.prev:
		next = OpinionZero
	}
	a.prev = store
	return next
}

func aggregateConfig() Config {
	return Config{
		N:         400,
		Protocol:  trendFixture{ell: 8},
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		Engine:    EngineAggregate,
		Seed:      5,
		MaxRounds: 2000,
	}
}

func TestAggregateEngineConverges(t *testing.T) {
	res, err := Run(aggregateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("aggregate trend run did not converge: %+v", res)
	}
	if res.FinalX != 1 {
		t.Fatalf("converged run must end at x = 1, got %v", res.FinalX)
	}
}

func TestAggregateTrajectoryBookkeeping(t *testing.T) {
	cfg := aggregateConfig()
	cfg.RecordTrajectory = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Rounds+1 {
		t.Fatalf("trajectory has %d entries for %d rounds", len(res.Trajectory), res.Rounds)
	}
	if res.Trajectory[0] != 1/float64(cfg.N) {
		t.Fatalf("x_0 = %v, want 1/n (all-wrong + 1 source)", res.Trajectory[0])
	}
	for i, x := range res.Trajectory {
		if x < 0 || x > 1 {
			t.Fatalf("x_%d = %v out of [0,1]", i, x)
		}
	}
}

func TestAggregateRequiresAggregateProtocol(t *testing.T) {
	cfg := aggregateConfig()
	cfg.Protocol = infectProtocol{target: OpinionOne}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for a non-aggregate protocol")
	}
}

func TestAggregateUniformMemory(t *testing.T) {
	cfg := aggregateConfig()
	cfg.Memory.Law = MemoryUniform
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("aggregate run with corrupted states did not converge: %+v", res)
	}
}

// statesFixture is trendFixture reporting a state count other than its
// ell+1 stored counts.
type statesFixture struct{ trendFixture }

func (statesFixture) AggregateStates() int { return 4 }

// TestAggregateBinomialMemory: the aggregate engine starts from a
// binomial memory law when its states are the m+1 stored counts — the
// law's draws land on the state occupancy — and refuses it with a
// MemoryError otherwise.
func TestAggregateBinomialMemory(t *testing.T) {
	cfg := aggregateConfig()
	cfg.Memory = Memory{Law: MemoryBinomial, X0: 0.4}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newAggregateExecutor(&c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.occ.Total(), c.N-c.Sources; got != want {
		t.Fatalf("occupancy holds %d agents, want %d", got, want)
	}
	if e.occ.Counts[0][0] == c.N-c.Sources {
		t.Fatal("binomial law left every agent at state 0")
	}
	res, err := Run(cfg)
	if err != nil || !res.Converged {
		t.Fatalf("binomial start: %+v, %v", res, err)
	}
	cfg.Protocol = statesFixture{trendFixture{ell: 8}}
	var me MemoryError
	if _, err := Run(cfg); !errors.As(err, &me) {
		t.Fatalf("4 states for m = 8: got %v, want a MemoryError", err)
	}
}

func TestAggregateFlipCorrect(t *testing.T) {
	cfg := aggregateConfig()
	cfg.FlipCorrectAt = 3
	cfg.MaxRounds = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the flip, convergence means everyone on 0.
	if !res.Converged {
		t.Fatalf("did not re-stabilize after the flip: %+v", res)
	}
	if res.FinalX != 0 {
		t.Fatalf("final x = %v, want 0 after flipping to correct = 0", res.FinalX)
	}
}

func TestOccupancyHelpers(t *testing.T) {
	o := NewOccupancy(3)
	o.Counts[1][0] = 4
	o.Counts[1][2] = 1
	o.Counts[0][1] = 7
	if o.Ones() != 5 {
		t.Fatalf("Ones = %d", o.Ones())
	}
	if o.Total() != 12 {
		t.Fatalf("Total = %d", o.Total())
	}
	o.Zero()
	if o.Total() != 0 {
		t.Fatalf("Total after Zero = %d", o.Total())
	}
}

func TestEngineKindStringNew(t *testing.T) {
	if EngineAggregateSparse.String() != "aggregate-sparse" {
		t.Fatal(EngineAggregateSparse.String())
	}
	if EngineAggregate.String() != "aggregate" {
		t.Fatal(EngineAggregate.String())
	}
}
