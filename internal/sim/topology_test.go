package sim

import (
	"reflect"
	"strings"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// majProto is a minimal majority-of-3 protocol: enough dynamics to move
// opinions around, local to the executor-level tests (the real FET is
// exercised against topologies by the root package's tests).
type majProto struct{}

func (majProto) Name() string               { return "maj3" }
func (majProto) SampleSizes() []int         { return []int{3} }
func (majProto) NewAgent(*rng.Source) Agent { return majAgent{} }

type majAgent struct{}

func (majAgent) Step(cur byte, obs Observation) byte {
	if obs.CountOnes(3) >= 2 {
		return OpinionOne
	}
	return OpinionZero
}

func topoConfig(t *testing.T, engine EngineKind, tp topo.Topology, parallelism int) Config {
	t.Helper()
	return Config{
		N:         400, // perfect square: torus-compatible
		Protocol:  majProto{},
		Init:      allWrongInit{},
		Engine:    engine,
		Topology:  tp,
		Seed:      17,
		MaxRounds: 40,
		RunToEnd:  true,

		Parallelism:      parallelism,
		RecordTrajectory: true,
	}
}

// TestGraphTopologyFastEqualsExact: on a non-complete topology every
// agent engine samples neighbor opinions literally, so the fast and
// exact engines must be byte-identical, not merely distribution-equal.
func TestGraphTopologyFastEqualsExact(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.Ring(3), topo.Torus(), topo.RandomRegular(6),
		topo.SmallWorld(3, 0.2), topo.DynamicRewire(6, 0.3),
	} {
		fast, err := Run(topoConfig(t, EngineAgentFast, tp, 0))
		if err != nil {
			t.Fatalf("%s fast: %v", tp.Name(), err)
		}
		exact, err := Run(topoConfig(t, EngineAgentExact, tp, 0))
		if err != nil {
			t.Fatalf("%s exact: %v", tp.Name(), err)
		}
		if !reflect.DeepEqual(fast, exact) {
			t.Errorf("%s: fast and exact engines diverged:\nfast:  %+v\nexact: %+v", tp.Name(), fast, exact)
		}
	}
}

// TestGraphTopologyParallelBitIdentical: the sharded sweep must match
// the sequential one at every worker count on every topology, dynamic
// rewiring included — neighbor rows derive from (seed, round, agent),
// never from scheduling.
func TestGraphTopologyParallelBitIdentical(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.RandomRegular(6), topo.SmallWorld(3, 0.2), topo.DynamicRewire(6, 0.3),
	} {
		ref, err := Run(topoConfig(t, EngineAgentFast, tp, 0))
		if err != nil {
			t.Fatalf("%s fast: %v", tp.Name(), err)
		}
		for _, workers := range []int{1, 2, 5, 16} {
			got, err := Run(topoConfig(t, EngineAgentFast, tp, workers))
			if err != nil {
				t.Fatalf("%s P=%d: %v", tp.Name(), workers, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: P=%d diverged from one shard:\none:     %+v\nsharded: %+v",
					tp.Name(), workers, ref, got)
			}
		}
	}
}

// TestCompleteTopologyIsDefaultIdentity: passing topo.Complete()
// explicitly must be byte-identical to the nil default — no topology
// stream is consumed under uniform mixing.
func TestCompleteTopologyIsDefaultIdentity(t *testing.T) {
	ref, err := Run(topoConfig(t, EngineAgentFast, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(topoConfig(t, EngineAgentFast, topo.Complete(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("explicit Complete() diverged from nil default:\nnil:      %+v\ncomplete: %+v", ref, got)
	}
}

// TestAggregateRejectsGraphTopology: the occupancy engine's update law
// is exact only under uniform mixing, so a graph topology must be
// rejected at validation time, before any executor is built.
func TestAggregateRejectsGraphTopology(t *testing.T) {
	cfg := topoConfig(t, EngineAggregate, topo.RandomRegular(6), 0)
	if err := cfg.Validate(); err == nil {
		t.Fatal("EngineAggregate accepted a non-complete topology")
	} else if !strings.Contains(err.Error(), "uniform mixing") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}

// TestTopologyValidatedAgainstPopulation: a topology that cannot be
// built over N must fail Validate, not surface from inside a run.
func TestTopologyValidatedAgainstPopulation(t *testing.T) {
	cfg := topoConfig(t, EngineAgentFast, topo.Ring(250), 0) // 2k > n−1 at n=400
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted ring k=250 over n=400")
	}
	cfg2 := topoConfig(t, EngineAgentFast, topo.Torus(), 0)
	cfg2.N = 401 // not a perfect square
	if err := cfg2.Validate(); err == nil {
		t.Fatal("Validate accepted a torus over a non-square population")
	}
}
