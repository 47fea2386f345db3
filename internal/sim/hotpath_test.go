package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// hotpathProtocol is a FET-shaped trend protocol local to the hot-path
// tests (internal/sim cannot import internal/core): two declared
// CountOnes calls per round and resettable agents. It is not a
// TrendLockstep, so it runs on the generic agentExecutor.
type hotpathProtocol struct{ ell int }

func (p *hotpathProtocol) Name() string       { return "hotpath-trend" }
func (p *hotpathProtocol) SampleSizes() []int { return []int{p.ell} }
func (p *hotpathProtocol) NewAgent(*rng.Source) Agent {
	return &hotpathAgent{ell: p.ell}
}

type hotpathAgent struct {
	ell  int
	prev int
}

func (a *hotpathAgent) Step(cur byte, obs Observation) byte {
	c1 := obs.CountOnes(a.ell)
	c2 := obs.CountOnes(a.ell)
	next := cur
	switch {
	case c1 > a.prev:
		next = OpinionOne
	case c1 < a.prev:
		next = OpinionZero
	}
	a.prev = c2
	return next
}

func (a *hotpathAgent) ResetAgent()                  { a.prev = 0 }
func (a *hotpathAgent) CorruptState(src *rng.Source) { a.prev = src.Intn(a.ell + 1) }

var (
	_ Protocol         = (*hotpathProtocol)(nil)
	_ AgentResetter    = (*hotpathAgent)(nil)
	_ StateCorruptible = (*hotpathAgent)(nil)
)

// hotpathConfig uses engine_test.go's deterministic halfInit so the
// alloc measurements never depend on initializer randomness.
func hotpathConfig(engine EngineKind, parallelism int, tp topo.Topology) Config {
	return Config{
		N:           2048,
		Protocol:    &hotpathProtocol{ell: 8},
		Init:        halfInit{},
		Correct:     OpinionOne,
		Engine:      engine,
		Parallelism: parallelism,
		Topology:    tp,
		Seed:        42,
		MaxRounds:   1 << 30,
	}
}

// TestStepZeroAllocsPerRound pins the round loop at zero steady-state
// allocations on every agent engine path: the sequential fast engine
// (tabulated binomials retabulated in place), the trend executor's
// kernel (d = 2 and d = 1) and graph round, sequential and sharded, the
// sharded fast engine (persistent word-aligned shard workers,
// pool-owned deltas/errs), the exact engine, and the literal graph path
// including dynamic rewiring.
func TestStepZeroAllocsPerRound(t *testing.T) {
	trendOn := func(engine EngineKind, parallelism int, tp topo.Topology, draws int) Config {
		c := hotpathConfig(engine, parallelism, tp)
		c.Protocol = lsTrend(8, draws)
		return c
	}
	trend := func(draws int) Config { return trendOn(EngineAgentFast, 0, nil, draws) }
	cases := []struct {
		name string
		cfg  Config
		kind string // the executor newRoundExecutor must pick
	}{
		{"fast", hotpathConfig(EngineAgentFast, 0, nil), "*sim.agentExecutor"},
		{"trend", trend(2), trendKind},
		{"trend-d1", trend(1), trendKind},
		{"trend-parallel", trendOn(EngineAgentFast, 4, nil, 2), trendKind},
		{"trend-graph", trendOn(EngineAgentFast, 0, topo.SmallWorld(4, 0.1), 2), trendKind},
		{"trend-graph-dynamic", trendOn(EngineAgentFast, 4, topo.DynamicRewire(8, 0.2), 1), trendKind},
		{"parallel", hotpathConfig(EngineAgentFast, 4, nil), "*sim.agentExecutor"},
		{"exact", hotpathConfig(EngineAgentExact, 0, nil), "*sim.agentExecutor"},
		{"graph", hotpathConfig(EngineAgentFast, 0, topo.RandomRegular(8)), "*sim.agentExecutor"},
		{"graph-dynamic", hotpathConfig(EngineAgentFast, 4, topo.DynamicRewire(8, 0.2)), "*sim.agentExecutor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e, err := newRoundExecutor(&c)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			if kind := fmt.Sprintf("%T", e); kind != tc.kind {
				t.Fatalf("runs on %s, want %s", kind, tc.kind)
			}
			// Warm up: first rounds grow the binomial tables and recycle
			// the first goroutine descriptors.
			for r := 0; r < 8; r++ {
				if err := e.Step(c.Correct); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := e.Step(c.Correct); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("Step allocates %v times per round in steady state, want 0", avg)
			}
		})
	}
}

// TestPoolReplicatesBitIdentical is the pooling determinism contract:
// leasing a reused executor for every replicate must reproduce the
// unpooled per-replicate results bit for bit — same opinions, same
// trajectories, same convergence rounds — on the fast, sharded, exact,
// and graph paths, with state corruption exercising the agent-reset
// sequence.
func TestPoolReplicatesBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fast", hotpathConfig(EngineAgentFast, 0, nil)},
		{"parallel", hotpathConfig(EngineAgentFast, 3, nil)},
		{"exact", hotpathConfig(EngineAgentExact, 0, nil)},
		{"dynamic", hotpathConfig(EngineAgentFast, 0, topo.DynamicRewire(8, 0.3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			defer pool.Release()
			for rep := 0; rep < 4; rep++ {
				cfg := tc.cfg
				cfg.Seed = rng.StreamSeed(99, uint64(rep))
				cfg.MaxRounds = 60
				cfg.RunToEnd = true
				cfg.RecordTrajectory = true
				cfg.Memory.Law = MemoryUniform
				want, err := RunContext(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pool.RunContext(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("replicate %d: pooled result diverged\nunpooled: %+v\npooled:   %+v", rep, want, got)
				}
			}
		})
	}
}

// TestPoolReusesExecutors confirms the pool actually reuses (not just
// tolerates) executors: after a lease returns, the next same-shape lease
// must receive the identical executor object.
func TestPoolReusesExecutors(t *testing.T) {
	pool := NewPool()
	defer pool.Release()
	cfg := hotpathConfig(EngineAgentFast, 0, nil)
	cfg.MaxRounds = 10
	cfg.RunToEnd = true
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	key := poolKey{engine: EngineAgentFast, n: cfg.N, sources: 1, shards: 1,
		protocol: cfg.Protocol.Name(), topology: "complete"}
	first := pool.get(key)
	if first == nil {
		t.Fatal("no pooled executor after a completed lease")
	}
	pool.put(key, first)
	cfg.Seed++
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	second := pool.get(key)
	if second != first {
		t.Fatalf("pool rebuilt the executor instead of reusing it")
	}
	pool.put(key, second)
}

// TestPooledParallelWorkersStop verifies the executor lifecycle: close
// must stop the persistent shard workers (Release path), and a closed
// pool must still serve fresh leases.
func TestPooledParallelWorkersStop(t *testing.T) {
	pool := NewPool()
	cfg := hotpathConfig(EngineAgentFast, 4, nil)
	cfg.MaxRounds = 10
	cfg.RunToEnd = true
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	pool.Release()
	// The pool stays usable after Release.
	if _, err := pool.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	pool.Release()
}

// TestShardPoolCloseWaitsForWorkers: a shard pool splits [lo, n) into
// shards whose results sum, and close returns only once its persistent
// workers have exited, so no goroutine outlives a released executor.
func TestShardPoolCloseWaitsForWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newShardPool(1, 1024, 4, func(_, lo, hi int) (int, error) { return hi - lo, nil })
	for r := 0; r < 3; r++ {
		if d, err := p.run(); err != nil || d != 1023 {
			t.Fatalf("round %d: run = %d, %v; want 1023, nil", r, d, err)
		}
	}
	p.close()
	p.close() // idempotent
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after close, %d before the pool", after, before)
	}
}
