package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// literalGraphObserver is the graph round's independent reference:
// every observation draws a neighbor through View.Next on the agent's
// own stream (one src.Intn per draw), reads its current opinion and,
// under noise, flips it on one src.Bernoulli(noiseEps) — no packed
// rows, no vector kernel.
type literalGraphObserver struct {
	ops      *opinionBits
	view     *topo.View
	src      *rng.Source
	noiseEps float64
}

func (o *literalGraphObserver) bind(agent int, src *rng.Source) {
	o.src = src
	o.view.Bind(agent)
}

func (o *literalGraphObserver) newRound(round int, _ float64, _ []roundTable) {
	o.view.NewRound(round)
}

func (o *literalGraphObserver) CountOnes(m int) int {
	count := 0
	for i := 0; i < m; i++ {
		count += int(o.Sample())
	}
	return count
}

func (o *literalGraphObserver) Sample() byte {
	b := o.ops.get(o.view.Next(o.src))
	if o.src.Bernoulli(o.noiseEps) {
		b ^= 1
	}
	return b
}

// runLiteralGraph runs cfg's replicate on a sequential agentExecutor
// whose observers are all literalGraphObservers.
func runLiteralGraph(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	cfg.Engine, cfg.Parallelism = EngineAgentFast, 0
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	e, err := newAgentExecutor(&c)
	if err != nil {
		t.Fatalf("newAgentExecutor: %v", err)
	}
	defer e.close()
	for w := range e.observers {
		e.observers[w] = &literalGraphObserver{ops: &e.opinions, view: e.graph.NewView(), noiseEps: c.NoiseEps}
	}
	return runLoop(context.Background(), &c, e)
}

// TestGraphRoundMatchesLiteral: on every packed power-of-two
// topology, for both trend rules, every start (all-wrong, half,
// uniform and binomial memories, a mid-run source flip) and the fast engine at
// P ∈ {0, 1, 3} shards (Parallelism), the executor must
// equal the literal per-draw reference in its Result and in every
// RoundEvent, across pooled replicates. Any reordered, dropped or extra
// stream consumption diverges a later draw. The trend rules run on the
// trend executor's graph round — rows packed per opinion word by
// topo.View.PackRows and counted in place by rng.Streams.CountRows — and
// the nine-draw wideDrawsProto runs on the generic executor, counting
// each call in the generator kernel; both must match.
func TestGraphRoundMatchesLiteral(t *testing.T) {
	specs := []string{"random-regular:8", "small-world:4:0.1", "ring", "torus", "dynamic:8:0.2"}
	protocols := []Protocol{
		lsTrend(13, 2), // FET-shaped
		lsTrend(7, 1),  // SimpleTrend-shaped
		wideDrawsProto{ell: 3, draws: 9},
	}
	starts := []struct {
		name string
		mut  func(*Config)
	}{
		{"all-wrong", func(c *Config) { c.Init = allWrongInit{} }},
		{"half", func(c *Config) { c.Init = halfInit{} }},
		{"corrupt", func(c *Config) { c.Init = allWrongInit{}; c.Memory.Law = MemoryUniform }},
		{"binomial", func(c *Config) { c.Init = halfInit{}; c.Memory = Memory{Law: MemoryBinomial, X0: 0.3} }},
		{"flip", func(c *Config) { c.Init = halfInit{}; c.FlipCorrectAt = 30 }},
	}
	engines := []struct {
		name string
		par  int
	}{
		{"p=1", 1},
		{"p=3", 3},
		{"fast", 0},
	}
	for _, spec := range specs {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range protocols {
			draws := proto.(interface{ DrawsPerRound() int }).DrawsPerRound()
			for _, st := range starts {
				for _, eng := range engines {
					t.Run(fmt.Sprintf("%s/d=%d/%s/%s", spec, draws, st.name, eng.name), func(t *testing.T) {
						cfg := Config{
							N:           1024, // a perfect square for the torus
							Protocol:    proto,
							Correct:     OpinionOne,
							Parallelism: eng.par,
							Topology:    tp,
							MaxRounds:   80,
						}
						if testing.Short() {
							// Still a square, and four words for three shards.
							cfg.N = 256
						}
						st.mut(&cfg)
						checkExecutorKind(t, cfg, draws <= 2)
						checkMatchesLiteral(t, cfg)
					})
				}
			}
		}
	}
}

// TestGraphGenericCellsStayGeneric: graph cells outside the trend
// executor's envelope — a non-trend round shape, noise, a degree that
// is not a power of two — run on the generic
// agentExecutor, and every one still equals the literal reference.
func TestGraphGenericCellsStayGeneric(t *testing.T) {
	base := Config{
		N:         1024,
		Protocol:  lsTrend(13, 2),
		Init:      halfInit{},
		Correct:   OpinionOne,
		Topology:  topo.RandomRegular(8),
		MaxRounds: 80,
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"wide-draws", func(c *Config) { c.Protocol = wideDrawsProto{ell: 3, draws: 9} }},
		{"noise", func(c *Config) { c.NoiseEps = 0.05 }},
		{"noise+random-regular:6", func(c *Config) { c.NoiseEps = 0.05; c.Topology = topo.RandomRegular(6) }},
		{"random-regular:6", func(c *Config) { c.Topology = topo.RandomRegular(6) }},
	}
	for _, tc := range cases {
		for _, eng := range []struct {
			name string
			par  int
		}{{"agent-fast", 0}, {"p=3", 3}} {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				cfg := base
				cfg.Parallelism = eng.par
				tc.mut(&cfg)
				checkExecutorKind(t, cfg, false)
				checkMatchesLiteral(t, cfg)
			})
		}
	}
}

// wideDrawsProto is a trend-following protocol that is not a
// TrendLockstep, so it runs on the generic agentExecutor: each agent
// makes draws CountOnes calls of size ell and follows the trend of
// their sum.
type wideDrawsProto struct{ ell, draws int }

func (p wideDrawsProto) Name() string       { return "wide-draws" }
func (p wideDrawsProto) SampleSizes() []int { return []int{p.ell} }
func (p wideDrawsProto) DrawsPerRound() int { return p.draws }
func (p wideDrawsProto) NewAgent(*rng.Source) Agent {
	return &wideDrawsAgent{p: p}
}

type wideDrawsAgent struct {
	p    wideDrawsProto
	prev int
}

func (a *wideDrawsAgent) Step(cur byte, obs Observation) byte {
	sum := 0
	for i := 0; i < a.p.draws; i++ {
		sum += obs.CountOnes(a.p.ell)
	}
	next := cur
	switch {
	case sum > a.prev:
		next = OpinionOne
	case sum < a.prev:
		next = OpinionZero
	}
	a.prev = sum
	return next
}

func (a *wideDrawsAgent) SeedPrevCount(count int) { a.prev = count }

// checkMatchesLiteral runs two pooled replicates of cfg and fails
// unless each equals the literal reference in its Result and in every
// RoundEvent.
func checkMatchesLiteral(t *testing.T, cfg Config) {
	t.Helper()
	pool := NewPool()
	defer pool.Release()
	for i := 0; i < 2; i++ {
		rc := cfg
		rc.Seed = rng.StreamSeed(0x5EED, uint64(i))
		var gotLog, wantLog eventLog
		rc.Observers = []Observer{&gotLog}
		got, gotErr := pool.RunContext(context.Background(), rc)
		rc.Observers = []Observer{&wantLog}
		want, wantErr := runLiteralGraph(t, rc)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("replicate %d: errs executor=%v literal=%v", i, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replicate %d diverged:\nexecutor: %+v\nliteral:  %+v", i, got, want)
		}
		if !reflect.DeepEqual(gotLog.events, wantLog.events) {
			t.Fatalf("replicate %d: round events diverged", i)
		}
	}
}

// checkExecutorKind fails unless cfg runs on the trend executor (trend)
// or on the generic agentExecutor (!trend).
func checkExecutorKind(t *testing.T, cfg Config, trend bool) {
	t.Helper()
	want := "*sim.agentExecutor"
	if trend {
		want = trendKind
	}
	if got := executorKind(t, cfg); got != want {
		t.Fatalf("runs on %s, want %s", got, want)
	}
}

// TestGraphRoundSourceWords: sources that fill whole opinion words, or
// end inside one, stay pinned through the graph round's buffer swap —
// source-only words are copied, a mixed first word keeps its source
// bits — and a FlipCorrectAt switch re-pins them; one shard and three
// equal the literal reference.
func TestGraphRoundSourceWords(t *testing.T) {
	for _, sources := range []int{64, 70, 130} {
		for _, par := range []int{0, 3} {
			t.Run(fmt.Sprintf("sources=%d/p=%d", sources, par), func(t *testing.T) {
				cfg := Config{
					N:             1024,
					Protocol:      lsTrend(13, 2),
					Init:          halfInit{},
					Correct:       OpinionOne,
					Sources:       sources,
					Topology:      topo.RandomRegular(8),
					MaxRounds:     60,
					FlipCorrectAt: 20,
					Memory:        Memory{Law: MemoryUniform},
					Parallelism:   par,
				}
				checkExecutorKind(t, cfg, true)
				checkMatchesLiteral(t, cfg)
			})
		}
	}
}

// TestGraphRoundEdgeShapesMatchLiteral: populations whose opinion words
// exercise every edge of the in-place row kernel — a first word that
// starts behind 1 or 3 sources, 8-stream chunks followed by a 1–7-stream
// tail, and a ragged last word (N = 67, 1000, 4097) — equal the literal
// per-draw reference on both trend rules at one shard and three.
func TestGraphRoundEdgeShapesMatchLiteral(t *testing.T) {
	for _, spec := range []string{"random-regular:8", "small-world:4:0.1"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{67, 1000, 4097} {
			for _, sources := range []int{1, 3} {
				for _, par := range []int{1, 3} {
					for _, d := range []int{1, 2} {
						t.Run(fmt.Sprintf("%s/n=%d/sources=%d/p=%d/d=%d", spec, n, sources, par, d), func(t *testing.T) {
							cfg := Config{
								N:           n,
								Protocol:    lsTrend(13, d),
								Init:        halfInit{},
								Correct:     OpinionOne,
								Sources:     sources,
								Parallelism: par,
								Topology:    tp,
								MaxRounds:   80,
								Memory:      Memory{Law: MemoryUniform},
							}
							checkExecutorKind(t, cfg, true)
							checkMatchesLiteral(t, cfg)
						})
					}
				}
			}
		}
	}
}
