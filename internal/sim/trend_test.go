package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// lsTrendProto is a test protocol implementing exactly the TrendLockstep
// contract through its Step method, with configurable draw count: d = 2
// mirrors FET (compare the first count, store the second), d = 1 mirrors
// SimpleTrend (one count for both). The bit-identity battery runs it
// through both the generic fast path (agents stepping) and the trend
// executor (rule replayed by the kernel) and demands identical results.
// Build it with lsTrend: the name is computed once, so a pooled lease
// allocates nothing.
type lsTrendProto struct {
	ell   int
	draws int
	name  string
}

func lsTrend(ell, draws int) lsTrendProto {
	return lsTrendProto{ell: ell, draws: draws, name: fmt.Sprintf("ls-trend(d=%d,ell=%d)", draws, ell)}
}

func (p lsTrendProto) Name() string       { return p.name }
func (p lsTrendProto) SampleSizes() []int { return []int{p.ell} }
func (p lsTrendProto) DrawsPerRound() int { return p.draws }
func (p lsTrendProto) LockstepRule()      {}
func (p lsTrendProto) NewAgent(*rng.Source) Agent {
	return &lsTrendAgent{ell: p.ell, draws: p.draws}
}

type lsTrendAgent struct {
	ell, draws, prev int
}

func (a *lsTrendAgent) Step(cur byte, obs Observation) byte {
	c0 := obs.CountOnes(a.ell)
	store := c0
	if a.draws == 2 {
		store = obs.CountOnes(a.ell)
	}
	next := cur
	switch {
	case c0 > a.prev:
		next = OpinionOne
	case c0 < a.prev:
		next = OpinionZero
	}
	a.prev = store
	return next
}

func (a *lsTrendAgent) PrevCount() int               { return a.prev }
func (a *lsTrendAgent) ResetAgent()                  { a.prev = 0 }
func (a *lsTrendAgent) CorruptState(src *rng.Source) { a.prev = src.Intn(a.ell + 1) }
func (a *lsTrendAgent) SeedPrevCount(count int)      { a.prev = count }

var (
	_ TrendLockstep    = lsTrendProto{}
	_ PrevCounter      = (*lsTrendAgent)(nil)
	_ AgentResetter    = (*lsTrendAgent)(nil)
	_ StateCorruptible = (*lsTrendAgent)(nil)
	_ TrendSeeder      = (*lsTrendAgent)(nil)
)

// randomBernoulliInit draws each non-source opinion independently,
// consuming initializer-stream outputs so the trend populate's
// initializer replay is exercised.
type randomBernoulliInit struct{ p float64 }

func (randomBernoulliInit) Name() string { return "random-bernoulli" }
func (r randomBernoulliInit) Assign(op []byte, isSource []bool, src *rng.Source) {
	for i := range op {
		if !isSource[i] {
			op[i] = OpinionZero
			if src.Bernoulli(r.p) {
				op[i] = OpinionOne
			}
		}
	}
}

// eventLog records every RoundEvent a replicate delivers.
type eventLog struct{ events []RoundEvent }

func (l *eventLog) ObserveRound(ev RoundEvent) error {
	l.events = append(l.events, ev)
	return nil
}

// runGeneric is the independent reference: cfg's replicate on the
// generic agentExecutor, built directly, whose agents step through the
// tabulated fastObserver (sharded at cfg.Parallelism).
func runGeneric(t *testing.T, ctx context.Context, cfg Config) (Result, error) {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	e, err := newAgentExecutor(&c)
	if err != nil {
		t.Fatalf("newAgentExecutor: %v", err)
	}
	defer e.close()
	if _, ok := e.observers[0].(*fastObserver); !ok && topo.IsComplete(c.Topology) && c.Engine != EngineAgentExact {
		t.Fatalf("reference runs on %T, want the fastObserver", e.observers[0])
	}
	return runLoop(ctx, &c, e)
}

// executorKind reports which executor newRoundExecutor picks for cfg.
func executorKind(t *testing.T, cfg Config) string {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	e, err := newRoundExecutor(&c)
	if err != nil {
		t.Fatalf("newRoundExecutor: %v", err)
	}
	defer e.close()
	return fmt.Sprintf("%T", e)
}

const trendKind = "*sim.trendExecutor"

// TestLockstepBitIdenticalMatrix: for every scenario, w replicates run
// through a pooled Pool.RunContext — the trend executor wherever
// trendSupported admits the config — must equal the generic
// agentExecutor + fastObserver reference bit for bit, in their Results
// and in every RoundEvent their observers receive.
func TestLockstepBitIdenticalMatrix(t *testing.T) {
	base := Config{
		N:         300,
		Protocol:  lsTrend(12, 2),
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 400,
		Memory:    Memory{Law: MemoryUniform},
	}
	scenarios := []struct {
		name   string
		mut    func(*Config)
		kernel bool // the config runs on the trend executor
	}{
		{"worst-case", func(*Config) {}, true},
		{"simple-trend", func(c *Config) { c.Protocol = lsTrend(7, 1) }, true},
		{"random-init", func(c *Config) { c.Init = randomBernoulliInit{p: 0.5} }, true},
		{"correct-zero", func(c *Config) {
			c.Correct = OpinionZero
			c.Init = allCorrectInit{} // every non-source starts wrong (at 1)
		}, true},
		{"three-sources", func(c *Config) { c.Sources = 3 }, true},
		{"noise", func(c *Config) { c.NoiseEps = 0.02 }, true},
		{"run-to-end", func(c *Config) {
			// Absorption happens long before MaxRounds, so the tail is a
			// long degenerate episode exercising the debt counter.
			c.RunToEnd = true
			c.MaxRounds = 120
		}, true},
		{"flip-out-of-absorption", func(c *Config) {
			// The run absorbs, idles degenerate until the flip, then the
			// sources switch sides: the run leaves the degenerate episode
			// through the bulk stream-advance settlement and reconverges
			// to 0.
			c.FlipCorrectAt = 90
			c.MaxRounds = 400
		}, true},
		{"absorb-window-3", func(c *Config) { c.AbsorbWindow = 3 }, true},
		{"trajectory", func(c *Config) { c.RecordTrajectory = true; c.MaxRounds = 60; c.RunToEnd = true }, true},
		{"observer-stop", func(c *Config) {
			c.Observers = []Observer{StopWhen(func(ev RoundEvent) bool { return ev.Round == 25 })}
		}, true},
		// Parallelism splits the trend executor's word loop into shards
		// and stays bit-identical to the one-shard reference.
		{"parallel-engine", func(c *Config) { c.Parallelism = 4 }, true},
		// Grid starts: stored counts ~ Binomial(m, X0), at both corners
		// (no draw consumed) and inside.
		{"binomial-0", func(c *Config) { c.Memory = Memory{Law: MemoryBinomial} }, true},
		{"binomial-0.3", func(c *Config) {
			c.Init = randomBernoulliInit{p: 0.4}
			c.Memory = Memory{Law: MemoryBinomial, X0: 0.3}
		}, true},
		{"binomial-1", func(c *Config) { c.Memory = Memory{Law: MemoryBinomial, X0: 1} }, true},
	}
	widths := []int{2, 5, 32, 64}

	for _, sc := range scenarios {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/w=%d", sc.name, w), func(t *testing.T) {
				cfg := base
				sc.mut(&cfg)
				if got := executorKind(t, cfg) == trendKind; got != sc.kernel {
					t.Fatalf("runs on the trend executor: %v, want %v", got, sc.kernel)
				}
				pool := NewPool()
				defer pool.Release()
				for i := 0; i < w; i++ {
					rc := cfg
					rc.Seed = rng.StreamSeed(uint64(0xC0FFEE+w), uint64(i))
					var gotLog, wantLog eventLog
					rc.Observers = append(append([]Observer(nil), cfg.Observers...), &gotLog)
					got, gotErr := pool.RunContext(context.Background(), rc)
					rc.Observers = append(append([]Observer(nil), cfg.Observers...), &wantLog)
					want, wantErr := runGeneric(t, context.Background(), rc)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("replicate %d: errs kernel=%v reference=%v", i, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("replicate %d diverged:\nkernel:    %+v\nreference: %+v", i, got, want)
					}
					if !reflect.DeepEqual(gotLog.events, wantLog.events) {
						t.Fatalf("replicate %d: round events diverged", i)
					}
				}
			})
		}
	}
}

// TestTrendExecutorPooledReuseBitIdentical: one pooled trend executor
// re-leased across seeds, initializers, noise, memory laws and correct
// opinions of one shape reproduces a freshly built executor's run bit
// for bit, and the pool really reuses it: one key serves every law.
func TestTrendExecutorPooledReuseBitIdentical(t *testing.T) {
	base := Config{
		N:         257,
		Protocol:  lsTrend(9, 2),
		Init:      randomBernoulliInit{p: 0.3},
		Correct:   OpinionOne,
		MaxRounds: 300,
	}
	variants := []func(*Config){
		func(c *Config) { c.Memory.Law = MemoryUniform },
		func(c *Config) { c.Init = allWrongInit{} },
		func(c *Config) { c.Memory = Memory{Law: MemoryBinomial, X0: 0.6} },
		func(c *Config) { c.NoiseEps = 0.01 },
		func(c *Config) { c.Correct = OpinionZero; c.Init = allCorrectInit{}; c.Memory.Law = MemoryUniform },
		func(c *Config) { c.FlipCorrectAt = 60; c.RecordTrajectory = true },
		func(*Config) {},
	}
	p := NewPool()
	defer p.Release()
	var first *trendExecutor
	for v, mut := range variants {
		cfg := base
		mut(&cfg)
		cfg.Seed = uint64(1000 + v)
		got, err := p.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		c, err := cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := newTrendExecutor(&c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runLoop(context.Background(), &c, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("variant %d diverged:\npooled: %+v\nfresh:  %+v", v, got, want)
		}
		var idle []pooledExecutor
		for _, fs := range p.free {
			idle = append(idle, fs...)
		}
		if len(idle) != 1 {
			t.Fatalf("variant %d: pool holds %d idle executors, want 1", v, len(idle))
		}
		e, ok := idle[0].(*trendExecutor)
		if !ok {
			t.Fatalf("variant %d: pooled %T, want the trend executor", v, idle[0])
		}
		if first == nil {
			first = e
		} else if e != first {
			t.Fatalf("variant %d: the pool rebuilt the executor instead of reusing it", v)
		}
	}
}

// TestLockstepFallbackIneligible: configurations outside the trend
// executor's envelope run on the generic agentExecutor, with results
// identical to the directly built reference.
func TestLockstepFallbackIneligible(t *testing.T) {
	base := Config{
		N:         128,
		Protocol:  lsTrend(8, 2),
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 300,
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"exact-engine", func(c *Config) { c.Engine = EngineAgentExact }},
		// A sharded run on a noisy graph, whose draws the graph round
		// cannot replay.
		{"parallel-engine", func(c *Config) {
			c.Parallelism = 3
			c.Topology = topo.RandomRegular(8)
			c.NoiseEps = 0.05
		}},
		// A degree that is not a power of two: Lemire draws can reject.
		{"graph-topology", func(c *Config) { c.Topology = topo.RandomRegular(6) }},
		{"non-trend-protocol", func(c *Config) { c.Protocol = majorityProtocol{m: 5} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			c, err := cfg.withDefaults()
			if err != nil {
				t.Fatalf("withDefaults: %v", err)
			}
			if trendSupported(&c) {
				t.Fatalf("config unexpectedly eligible for the trend executor")
			}
			if kind := executorKind(t, cfg); kind != "*sim.agentExecutor" {
				t.Fatalf("runs on %s, want the generic agentExecutor", kind)
			}
			p := NewPool()
			defer p.Release()
			for i := uint64(0); i < 4; i++ {
				rc := cfg
				rc.Seed = rng.StreamSeed(7, i)
				got, err := p.RunContext(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runGeneric(t, context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replicate %d diverged", i)
				}
			}
		})
	}
}

// TestLockstepNilPoolDegrades: a nil *Pool runs a trend replicate
// unpooled, with the pooled path's result.
func TestLockstepNilPoolDegrades(t *testing.T) {
	cfg := Config{
		N:         100,
		Protocol:  lsTrend(6, 2),
		Init:      allWrongInit{},
		MaxRounds: 200,
	}
	var np *Pool
	p := NewPool()
	defer p.Release()
	for i := uint64(0); i < 4; i++ {
		cfg.Seed = rng.StreamSeed(3, i)
		got, err := np.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replicate %d diverged", i)
		}
	}
}

// TestLockstepCancellation: cancelling mid-run stops a trend replicate
// with the context error at the next round boundary, and the executor
// returned to the pool by the aborted run serves the next replicate bit
// for bit.
func TestLockstepCancellation(t *testing.T) {
	cfg := Config{
		N:         300,
		Protocol:  lsTrend(12, 2),
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 400,
		Memory:    Memory{Law: MemoryUniform},
		Seed:      99,
	}
	want, err := runGeneric(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds < 5 {
		t.Fatalf("degenerate reference: %d rounds", want.Rounds)
	}
	cancelAt := want.Rounds / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	cut := cfg
	cut.Observers = []Observer{ObserverFunc(func(ev RoundEvent) error {
		rounds++
		if ev.Round == cancelAt {
			cancel()
		}
		return nil
	})}
	p := NewPool()
	defer p.Release()
	if _, err := p.RunContext(ctx, cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rounds != cancelAt+1 {
		t.Errorf("ran %d rounds after cancelling in round %d", rounds, cancelAt)
	}
	got, err := p.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replicate after the aborted run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestLockstepSteadyStateAllocs: once the pool holds a trend executor, a
// whole further replicate — hundreds of rounds, degenerate tail
// included — allocates nothing.
func TestLockstepSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		N:         512,
		Protocol:  lsTrend(10, 2),
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		MaxRounds: 200,
		RunToEnd:  true,
		Memory:    Memory{Law: MemoryUniform},
		Seed:      11,
	}
	p := NewPool()
	defer p.Release()
	if _, err := p.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled trend replicate allocated %v objects, want 0", allocs)
	}
}

// TestTrendEdgeShapesBitIdentical runs the trend executor against the
// generic reference at populations whose opinion words exercise every
// edge of the fused kernel: 1–3-agent tails after whole 4-agent groups
// (N = 5, 67, 4097), a first word of 61–63 agents behind the sources, a
// last partial word, and — through FlipCorrectAt after absorption —
// degenerate-round debt settled by the stream block's Advance. Each run
// must really absorb before its flip, so the debt path is taken.
func TestTrendEdgeShapesBitIdentical(t *testing.T) {
	for _, n := range []int{5, 67, 4097} {
		for _, sources := range []int{1, 3} {
			for _, d := range []int{1, 2} {
				t.Run(fmt.Sprintf("n=%d/sources=%d/d=%d", n, sources, d), func(t *testing.T) {
					cfg := Config{
						N:             n,
						Protocol:      lsTrend(10, d),
						Init:          allWrongInit{},
						Correct:       OpinionOne,
						Sources:       sources,
						MaxRounds:     900,
						Memory:        Memory{Law: MemoryUniform},
						FlipCorrectAt: 300,
					}
					if kind := executorKind(t, cfg); kind != trendKind {
						t.Fatalf("runs on %s, want the trend executor", kind)
					}
					pool := NewPool()
					defer pool.Release()
					for i := uint64(0); i < 3; i++ {
						rc := cfg
						rc.Seed = rng.StreamSeed(uint64(n*10+sources*2+d), i)
						var gotLog, wantLog eventLog
						rc.Observers = []Observer{&gotLog}
						got, gotErr := pool.RunContext(context.Background(), rc)
						rc.Observers = []Observer{&wantLog}
						want, wantErr := runGeneric(t, context.Background(), rc)
						if gotErr != nil || wantErr != nil {
							t.Fatalf("replicate %d: errs kernel=%v reference=%v", i, gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("replicate %d diverged:\nkernel:    %+v\nreference: %+v", i, got, want)
						}
						if !reflect.DeepEqual(gotLog.events, wantLog.events) {
							t.Fatalf("replicate %d: round events diverged", i)
						}
						absorbed := false
						for _, ev := range gotLog.events {
							absorbed = absorbed || (ev.Round < cfg.FlipCorrectAt && ev.Ones == n)
						}
						if !absorbed {
							t.Fatalf("replicate %d never absorbed before the flip: the debt path went untested", i)
						}
					}
				})
			}
		}
	}
}

// TestTrendBinomialMemoryIsOneBinomial: under MemoryBinomial the trend
// executor's populate leaves every agent stream exactly one
// Binomial(m, X0) past its seed, with that draw as the stored count —
// the generic populate's SeedPrevCount draw, consumed from the same
// stream — at X0 ∈ {0, 0.3, 1} and sample sizes on every Binomial
// branch.
func TestTrendBinomialMemoryIsOneBinomial(t *testing.T) {
	for _, x0 := range []float64{0, 0.3, 1} {
		for _, ell := range []int{1, 12, 40, 200} {
			cfg := Config{
				N:         200,
				Sources:   3,
				Protocol:  lsTrend(ell, 2),
				Init:      allWrongInit{},
				MaxRounds: 1,
				Seed:      uint64(ell),
				Memory:    Memory{Law: MemoryBinomial, X0: x0},
			}
			c, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e, err := newTrendExecutor(&c)
			if err != nil {
				t.Fatal(err)
			}
			var got rng.Source
			for j := c.Sources; j < c.N; j++ {
				ref := rng.NewFrom(c.Seed, uint64(j)+1)
				want := ref.Binomial(ell, x0)
				if int(e.prev[j]) != want {
					t.Fatalf("x0=%v ell=%d agent %d: stored %d, Binomial = %d", x0, ell, j, e.prev[j], want)
				}
				e.srcs.Load(j, &got)
				if got != *ref {
					t.Fatalf("x0=%v ell=%d agent %d: stream consumed other outputs than one Binomial(%d, %v)", x0, ell, j, ell, x0)
				}
			}
			e.close()
		}
	}
}

// overCountProto is lsTrend whose agents reset their stored count to
// ell+1, outside every round law's support.
type overCountProto struct{ lsTrendProto }

func (p overCountProto) NewAgent(*rng.Source) Agent {
	return &overCountAgent{lsTrendAgent{ell: p.ell, draws: p.draws}}
}

type overCountAgent struct{ lsTrendAgent }

func (a *overCountAgent) ResetAgent() { a.prev = a.ell + 1 }

// TestTrendRejectsOutOfRangeCount: a stored count outside [0, m] would
// index past the threshold table in the vector kernel, so populate
// refuses it with an error instead of running the round.
func TestTrendRejectsOutOfRangeCount(t *testing.T) {
	cfg := Config{N: 64, Protocol: overCountProto{lsTrend(6, 2)}, Init: allWrongInit{}, MaxRounds: 10}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if !trendSupported(&c) {
		t.Fatal("config not eligible for the trend executor")
	}
	if _, err := newTrendExecutor(&c); err == nil {
		t.Fatal("stored count 7 with m = 6 accepted")
	}
}

// BenchmarkTrendKernel times one live trend round at n = 4096 — the
// table reset at x = 0.5, so no round is skipped as degenerate — once
// through the dispatched kernel (the AVX2 one where the CPU has it) and
// once through the portable rng.Streams.TrendWordGeneric, and reports
// ns per agent-round. The graph rows time whole FET rounds (d = 2) on
// random-regular:8 and small-world:4:0.1 from a random half-and-half
// start, re-populated every 16 rounds (untimed) so the rows stay mixed:
// gather, CountRows and decision through the executor's Step.
func BenchmarkTrendKernel(b *testing.B) {
	const n = 4096
	for _, spec := range []string{"random-regular:8", "small-world:4:0.1"} {
		b.Run("graph="+spec, func(b *testing.B) {
			tp, err := topo.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				N:         n,
				Protocol:  lsTrend(18, 2),
				Init:      randomBernoulliInit{p: 0.5},
				Correct:   OpinionOne,
				Topology:  tp,
				Memory:    Memory{Law: MemoryUniform},
				Seed:      5,
				MaxRounds: 1 << 20,
			}
			c, err := cfg.withDefaults()
			if err != nil {
				b.Fatal(err)
			}
			e, err := newPooledExecutor(&c)
			if err != nil {
				b.Fatal(err)
			}
			defer e.close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 15 {
					b.StopTimer()
					c.Seed++
					if err := e.populate(c); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := e.Step(c.Correct); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n-c.Sources), "ns/agent-round")
		})
	}
	for _, d := range []int{1, 2} {
		for _, kernel := range []string{"vector", "portable"} {
			b.Run(fmt.Sprintf("d=%d/%s", d, kernel), func(b *testing.B) {
				if kernel == "vector" && !rng.VectorKernels() {
					b.Skip("AVX2 absent: TrendWord runs the portable kernel")
				}
				cfg := Config{
					N:         n,
					Protocol:  lsTrend(18, d),
					Init:      allWrongInit{},
					Correct:   OpinionOne,
					Seed:      5,
					MaxRounds: 1,
				}
				c, err := cfg.withDefaults()
				if err != nil {
					b.Fatal(err)
				}
				e, err := newTrendExecutor(&c)
				if err != nil {
					b.Fatal(err)
				}
				e.thr.Reset(e.m, 0.5)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kernel == "vector" {
						e.kernel(c.Sources, n)
						continue
					}
					for lo := c.Sources; lo < n; {
						hi := min(n, (lo>>6+1)<<6)
						//fet:allow rngmirror: benchmark only — times the portable kernel's d draws per agent; no result depends on the streams
						e.srcs.TrendWordGeneric(e.d, &e.thr, e.prev, lo, hi)
						lo = hi
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n-c.Sources), "ns/agent-round")
			})
		}
	}
}

// BenchmarkTrendPopulate times the trend executor's per-replicate
// populate at n = 4096 — initializer, opinion packing, one
// rng.Streams.Seed pass over the agent streams and, under the binomial
// law, one Binomial draw per stream — under each memory law, and
// reports ns per agent.
func BenchmarkTrendPopulate(b *testing.B) {
	const n = 4096
	for _, mem := range []struct {
		name string
		mem  Memory
	}{
		{"uniform", Memory{Law: MemoryUniform}},
		{"fresh", Memory{}},
		{"binomial", Memory{Law: MemoryBinomial, X0: 0.3}},
	} {
		b.Run("memory="+mem.name, func(b *testing.B) {
			cfg := Config{
				N:         n,
				Protocol:  lsTrend(36, 2),
				Init:      allWrongInit{},
				Correct:   OpinionOne,
				Memory:    mem.mem,
				MaxRounds: 1,
			}
			c, err := cfg.withDefaults()
			if err != nil {
				b.Fatal(err)
			}
			e, err := newTrendExecutor(&c)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Seed = uint64(i)
				if err := e.populate(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
		})
	}
}
