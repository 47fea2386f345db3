package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// literalGraphObserver is the round pre-pass's independent reference:
// every observation draws a neighbor through View.Next on the agent's
// own stream (one src.Intn per draw) and reads its current opinion —
// no packed rows, no deferred debt, no lane batching.
type literalGraphObserver struct {
	ops  *opinionBits
	view *topo.View
	src  *rng.Source
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

func (o *literalGraphObserver) Sample() byte { return o.ops.get(o.view.Next(o.src)) }

// runLiteralGraph runs cfg's replicate on a sequential agentExecutor
// whose observers are all literalGraphObservers.
func runLiteralGraph(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	cfg.Engine, cfg.Parallelism = EngineAgentFast, 0
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	e, err := newAgentExecutor(&c, nil)
	if err != nil {
		t.Fatalf("newAgentExecutor: %v", err)
	}
	defer e.close()
	for w := range e.observers {
		e.observers[w] = &literalGraphObserver{ops: &e.opinions, view: e.graph.NewView()}
	}
	return runLoop(context.Background(), &c, e)
}

// TestGraphPrepassMatchesLiteral: on every packed power-of-two topology,
// for both trend rules and both starts, the executor — whose graph
// observers count each round in the lane pre-pass, deferring
// homogeneous rows into debt — must equal the literal per-draw
// reference in its Result and in every RoundEvent, sequentially and
// sharded, across pooled replicates. Any reordered, dropped or extra
// stream consumption diverges a later draw. A round shape wider than
// maxFixedDraws skips the pre-pass, counting each call in the generator
// kernel and burning homogeneous rows call by call, and must match too.
func TestGraphPrepassMatchesLiteral(t *testing.T) {
	specs := []string{"random-regular:8", "small-world:4:0.1", "ring", "torus", "dynamic:8:0.2"}
	protocols := []Protocol{
		lsTrend(13, 2), // FET-shaped
		lsTrend(7, 1),  // SimpleTrend-shaped
		wideDrawsProto{ell: 3, draws: maxFixedDraws + 1},
	}
	inits := []Initializer{allWrongInit{}, halfInit{}}
	for _, spec := range specs {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range protocols {
			draws := proto.(FixedDraws).DrawsPerRound()
			for _, init := range inits {
				for _, par := range []int{1, 3} {
					name := fmt.Sprintf("%s/d=%d/%s/p=%d", spec, draws, init.Name(), par)
					t.Run(name, func(t *testing.T) {
						cfg := Config{
							N:           1024, // a perfect square for the torus
							Protocol:    proto,
							Init:        init,
							Correct:     OpinionOne,
							Engine:      EngineAgentParallel,
							Parallelism: par,
							Topology:    tp,
							MaxRounds:   80,
						}
						checkPrepassRuns(t, cfg, draws <= maxFixedDraws)
						checkMatchesLiteral(t, cfg)
					})
				}
			}
		}
	}
}

// wideDrawsProto is a FixedDraws protocol whose round shape exceeds
// maxFixedDraws: each agent makes draws CountOnes calls of size ell and
// follows the trend of their sum.
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

// checkPrepassRuns fails unless cfg's executor counts rounds in the
// lane pre-pass on every shard (want) or on none (!want).
func checkPrepassRuns(t *testing.T, cfg Config, want bool) {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	e, err := newAgentExecutor(&c, nil)
	if err != nil {
		t.Fatalf("newAgentExecutor: %v", err)
	}
	defer e.close()
	for w, obs := range e.observers {
		g, ok := obs.(*graphObserver)
		if !ok {
			t.Fatalf("shard %d observer is %T, not a graph observer", w, obs)
		}
		if g.precounts() != want {
			t.Fatalf("shard %d: pre-pass runs = %v, want %v", w, g.precounts(), want)
		}
	}
}
