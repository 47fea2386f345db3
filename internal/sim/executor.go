package sim

import (
	"fmt"
	"runtime"
	"sync"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// roundExecutor is the pluggable execution layer under Run: it owns the
// population representation and advances it one synchronous round at a
// time, while the orchestrator keeps all protocol-independent bookkeeping.
//
// Implementations: the per-agent executors (exact, fast, parallel) hold
// packed opinion bitsets and agent arrays; the trend executor holds
// packed opinions, streams and stored counts for the trend-rule
// protocols on the fast engine; the aggregate executor holds only
// per-state occupancy counts.
type roundExecutor interface {
	// Ones returns the current number of 1-opinions across the whole
	// population, sources included.
	Ones() int
	// Step advances one synchronous round. correct is the opinion the
	// sources currently display (it can change mid-run under
	// Config.FlipCorrectAt; the executor re-pins sources every round).
	Step(correct byte) error
	// close releases executor-owned background resources (the parallel
	// engine's persistent shard workers). A closed executor must not
	// Step again.
	close()
}

// pooledExecutor is a roundExecutor over an explicit per-agent
// population, which the Pool re-populates for each replicate of its
// shape instead of rebuilding.
type pooledExecutor interface {
	roundExecutor
	// populate initializes the executor for one replicate of c, with
	// exactly the RNG consumption of a fresh construction. c is passed
	// by value: the executor keeps it, and a pooled lease allocates
	// nothing.
	populate(c Config) error
}

// newRoundExecutor builds the executor selected by cfg.Engine from an
// already-validated config.
func newRoundExecutor(c *Config) (roundExecutor, error) {
	switch c.Engine {
	case EngineAgentFast, EngineAgentExact, EngineAgentParallel:
		e, err := newPooledExecutor(c, nil)
		if err != nil {
			return nil, err
		}
		return e, nil
	case EngineAggregate, EngineAggregateSparse:
		return newAggregateExecutor(c)
	default:
		return nil, fmt.Errorf("sim: unknown engine %v", c.Engine)
	}
}

// newPooledExecutor builds and populates the executor for an agent
// engine: the trend executor where trendSupported(c) holds, the generic
// agentExecutor otherwise. The pool p supplies the read-only state
// executors share; nil builds it privately.
func newPooledExecutor(c *Config, p *Pool) (pooledExecutor, error) {
	if trendSupported(c) {
		e, err := newTrendExecutor(c)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	e, err := newAgentExecutor(c, p)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// agentExecutor advances an explicit per-agent population. It backs the
// exact, fast, and parallel engines, which differ only in how a round's
// observations are sampled and how the agent sweep is scheduled.
//
// The executor is built once and re-populated per replicate (see
// populate and Pool): every O(n) buffer — the opinion bitsets, the
// initializer scratch, the per-agent RNG states, the agent objects where
// the protocol supports in-place reset, the observation graph's
// adjacency — is reused across replicates, and the round loop itself
// runs with zero steady-state allocations.
type agentExecutor struct {
	cfg Config // the current replicate's configuration
	// opinions and next are the packed double-buffered population: one
	// bit per agent, swapped after every round. Observers hold pointers
	// to the structs (whose addresses never change), so the swap needs no
	// observer re-aiming.
	opinions opinionBits
	next     opinionBits
	// initBuf is the []byte scratch handed to Initializer.Assign — the
	// initializer seam keeps its byte-per-agent contract (and its RNG
	// draws) and the result is packed into the bitset once per replicate.
	initBuf  []byte
	isSource []bool
	agents   []Agent
	// srcs holds the per-agent generators by value: one reseed per agent
	// per replicate instead of one allocation. Agents capture &srcs[i],
	// which stays valid for the executor's lifetime.
	srcs []rng.Source
	// deficit counts, per agent, the homogeneous-row rounds whose stream
	// advance the graph observers deferred (nil off the fused jump path).
	// Reset each replicate; leftover debt at replicate end is dropped —
	// an absorbed population's streams are never read again.
	deficit []uint32
	// counts is the graph observers' per-agent counts slab: the round
	// pre-pass writes each agent's whole round of CountOnes answers
	// (DrawsPerRound entries) before the sweep steps it (nil unless the
	// fused contract can hold; see graphPrepassShape).
	counts []int32
	// sampleSizes are the protocol's declared CountOnes sizes; tables
	// holds the per-round tabulated binomial laws for them, retabulated
	// in place every round (nil on the exact and graph paths, which
	// sample literally).
	sampleSizes []int
	tables      []roundTable
	// agentsReusable reports that the agents implement AgentResetter and
	// can be reset in place instead of reallocated per replicate. (The
	// pool key guarantees a reused executor sees the same protocol
	// identity.)
	agentsReusable bool
	// ones counts the 1-opinions in opinions (sources included).
	ones int
	// workers is the shard count for EngineAgentParallel (≥ 1).
	workers int
	// observers are the per-shard reusable observation samplers: one
	// observer per shard avoids a heap allocation per agent per round
	// without sharing mutable state across goroutines.
	observers []reusableObserver
	// graph is the built observation graph for non-complete topologies
	// (nil under uniform mixing, which keeps the pre-topology fast paths
	// byte-identical). It is rebuilt in place per replicate.
	graph *topo.Graph
	// round counts executed rounds; dynamic topologies derive their
	// per-round rewiring streams from it.
	round int

	// Parallel scheduling state (workers > 1): persistent shard workers
	// fed one shard index per round over work, so a parallel round costs
	// zero goroutine spawns and zero allocations. shardLo/shardHi are
	// word-aligned (multiples of 64) so no two shards ever read-modify-
	// write the same bitset word.
	shardLo, shardHi []int
	deltas           []int
	errs             []error
	work             chan int
	wg               sync.WaitGroup
	closed           bool
}

// topoStream is the offset added to the population size to derive the
// topology-construction stream: streams 0 (initializer) and 1..n (agents)
// are taken, so the graph builds from StreamSeed(seed, n+topoStream).
// Complete-topology runs never draw from it — their RNG consumption is
// unchanged from the pre-topology layout.
const topoStream = 1

// reusableObserver is an Observation that can be re-aimed at a new agent's
// RNG stream between Step calls, so one allocation serves a whole shard.
type reusableObserver interface {
	Observation
	// bind prepares the observer for one agent and the current round.
	bind(agent int, src *rng.Source)
	// newRound installs the current round's observation law.
	newRound(round int, x float64, tables []roundTable)
}

// newAgentExecutor builds an executor for c. The pool p supplies the
// read-only state executors share (the graph jump ladder); nil builds
// it privately.
func newAgentExecutor(c *Config, p *Pool) (*agentExecutor, error) {
	n := c.N
	e := &agentExecutor{
		initBuf:     make([]byte, n),
		isSource:    make([]bool, n),
		agents:      make([]Agent, n),
		srcs:        make([]rng.Source, n),
		sampleSizes: c.Protocol.SampleSizes(),
		workers:     1,
	}
	e.opinions.resize(n)
	e.next.resize(n)
	// Sources occupy the first indices; sampling is uniform so placement
	// is irrelevant.
	for i := 0; i < c.Sources; i++ {
		e.isSource[i] = true
	}

	if c.Engine == EngineAgentParallel {
		e.workers = resolvedWorkers(c)
	}
	if !topo.IsComplete(c.Topology) {
		// The graph builds from its own derived stream (never touched by
		// complete-topology runs) and shards row construction across the
		// same worker budget as the round sweep; per-row streams keep the
		// result byte-identical at any worker count.
		graph, err := c.Topology.Build(n, rng.StreamSeed(c.Seed, uint64(n)+topoStream), e.workers)
		if err != nil {
			return nil, fmt.Errorf("sim: building topology %q: %w", c.Topology.Name(), err)
		}
		e.graph = graph
	}

	// The tabulated-binomial fast path applies under uniform mixing on
	// the non-exact engines; graph topologies sample neighbor opinions
	// literally instead.
	fastPath := c.Engine != EngineAgentExact && e.graph == nil
	if fastPath {
		e.tables = newRoundTables(e.sampleSizes)
	}
	drawsPerRound := 0
	if fd, ok := c.Protocol.(FixedDraws); ok && fastPath {
		if d := fd.DrawsPerRound(); d >= 1 && d <= maxFixedDraws {
			drawsPerRound = d
		}
	}

	e.observers = make([]reusableObserver, e.workers)
	var graphLadder *rng.JumpLadder
	if e.graph != nil {
		if d, m := graphPrepassShape(e.graph, c); d > 0 {
			e.counts = make([]int32, n*d)
			if d*m <= maxRoundJumpSteps {
				// Homogeneous-row rounds defer their stream advance into a
				// per-agent debt counter; the ladder settles any debt in
				// O(log debt) applications. Shards own disjoint agent
				// ranges, so the counters are race-free under parallel
				// stepping.
				graphLadder = p.jumpLadder(d*m, c.MaxRounds)
				e.deficit = make([]uint32, n)
			}
		}
	}
	for w := range e.observers {
		switch {
		case e.graph != nil:
			// Non-complete topology: every agent engine samples neighbor
			// opinions through the packed-row gather; fast and exact
			// coincide here.
			e.observers[w] = newGraphObserver(&e.opinions, e.graph, c, graphLadder, e.deficit, e.counts)
		case c.Engine == EngineAgentExact:
			e.observers[w] = &exactObserver{ops: &e.opinions, noiseEps: c.NoiseEps}
		default:
			e.observers[w] = &fastObserver{draws: drawsPerRound}
		}
	}

	if e.workers > 1 {
		e.startWorkers(c)
	}
	if err := e.populate(*c); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// resolvedWorkers returns the shard count EngineAgentParallel will use
// for c: Parallelism, defaulted to GOMAXPROCS, capped by the non-source
// population, floored at 1. It is part of the executor's reuse shape.
func resolvedWorkers(c *Config) int {
	workers := c.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := c.N - c.Sources; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// startWorkers precomputes the word-aligned shard bounds and spawns the
// persistent shard workers. Shard boundaries affect scheduling only:
// every agent draws from its own stream, so any partition of the
// non-source range merges to the same population.
func (e *agentExecutor) startWorkers(c *Config) {
	lo, n := c.Sources, c.N
	e.shardLo = make([]int, e.workers)
	e.shardHi = make([]int, e.workers)
	e.deltas = make([]int, e.workers)
	e.errs = make([]error, e.workers)
	prev := lo
	for w := 0; w < e.workers; w++ {
		hi := lo + (n-lo)*(w+1)/e.workers
		if w < e.workers-1 {
			// Align interior boundaries to 64 so no two shards write the
			// same word of the packed next buffer.
			hi = (hi + 63) &^ 63
			if hi < prev {
				hi = prev
			}
			if hi > n {
				hi = n
			}
		} else {
			hi = n
		}
		e.shardLo[w], e.shardHi[w] = prev, hi
		prev = hi
	}
	e.work = make(chan int)
	for w := 0; w < e.workers; w++ {
		go func() {
			for sh := range e.work {
				e.deltas[sh], e.errs[sh] = e.stepShard(e.shardLo[sh], e.shardHi[sh], e.observers[sh])
				e.wg.Done()
			}
		}()
	}
}

// populate initializes the executor for one replicate of c, reusing
// every buffer. It performs exactly the RNG consumption of a fresh
// construction — initializer stream 0, agent streams 1..n, the
// topology's derived stream — so a pooled replicate is bit-identical to
// an unpooled one.
func (e *agentExecutor) populate(cfg Config) error {
	e.cfg = cfg
	c := &e.cfg
	e.round = 0
	n := c.N

	for i := range e.initBuf {
		e.initBuf[i] = 0
	}
	for i := 0; i < c.Sources; i++ {
		e.initBuf[i] = c.Correct
	}
	// Stream 0 seeds the initializer; streams 1..n seed the agents.
	var initSrc rng.Source
	initSrc.Reseed(rng.StreamSeed(c.Seed, 0))
	c.Init.Assign(e.initBuf, e.isSource, &initSrc)
	for i := 0; i < c.Sources; i++ {
		if e.initBuf[i] != c.Correct {
			return fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
		}
	}
	e.opinions.packFrom(e.initBuf)
	e.next.zero()
	e.ones = e.opinions.ones()

	reuse := e.agentsReusable
	for i := range e.deficit {
		e.deficit[i] = 0
	}
	for i := c.Sources; i < n; i++ {
		e.srcs[i].Reseed(rng.StreamSeed(c.Seed, uint64(i)+1))
		if reuse {
			e.agents[i].(AgentResetter).ResetAgent()
		} else {
			e.agents[i] = c.Protocol.NewAgent(&e.srcs[i])
		}
		if c.CorruptStates {
			if sc, ok := e.agents[i].(StateCorruptible); ok {
				sc.CorruptState(&e.srcs[i])
			}
		}
		if c.StateInit != nil {
			c.StateInit(i, e.agents[i], &e.srcs[i])
		}
	}
	if !reuse && n > c.Sources {
		// Sources < N is validated, so at least one agent exists; all
		// agents share the protocol's concrete type.
		_, e.agentsReusable = e.agents[c.Sources].(AgentResetter)
	}

	if e.graph != nil {
		want := rng.StreamSeed(c.Seed, uint64(n)+topoStream)
		if e.graph.Seed() != want {
			if err := topo.Rebuild(e.graph, c.Topology, n, want, e.workers); err != nil {
				return fmt.Errorf("sim: rebuilding topology %q: %w", c.Topology.Name(), err)
			}
		}
	}
	// Per-replicate observer parameters (the shape — observer kind, view
	// graph, draw batching — is construction-time).
	for _, obs := range e.observers {
		switch o := obs.(type) {
		case *exactObserver:
			o.noiseEps = c.NoiseEps
		case *graphObserver:
			// Noise changes the per-observation stream consumption, so the
			// prefetch size follows it.
			o.setNoise(c.NoiseEps)
		}
	}
	return nil
}

// close stops the persistent shard workers. Idempotent.
func (e *agentExecutor) close() {
	if e.work != nil && !e.closed {
		e.closed = true
		close(e.work)
	}
}

// Ones implements roundExecutor.
func (e *agentExecutor) Ones() int { return e.ones }

// Step implements roundExecutor.
//
//fet:hotpath
func (e *agentExecutor) Step(correct byte) error {
	c := &e.cfg
	n := c.N

	// Re-pin the sources: under FlipCorrectAt the correct opinion changes
	// mid-run and the displayed source opinions must follow before this
	// round's observations are drawn.
	for i := 0; i < c.Sources; i++ {
		if cur := e.opinions.get(i); cur != correct {
			e.ones += int(correct) - int(cur)
			e.opinions.set(i, correct)
		}
	}

	x := float64(e.ones) / float64(n)
	xObs := observedFraction(x, c.NoiseEps)
	if e.tables != nil {
		// Retabulate the round's binomial laws in place: a uniform-mixing
		// identity, recomputed with zero allocations.
		for i := range e.tables {
			e.tables[i].tab.Reset(e.tables[i].m, xObs)
		}
	}
	for _, obs := range e.observers {
		obs.newRound(e.round, xObs, e.tables)
	}

	var onesDelta int
	var err error
	if e.workers == 1 {
		onesDelta, err = e.stepShard(c.Sources, n, e.observers[0])
	} else {
		onesDelta, err = e.stepParallel()
	}
	if err != nil {
		return err
	}
	for i := 0; i < c.Sources; i++ {
		e.next.set(i, correct)
	}

	// Swap the double buffer. Observers hold &e.opinions, whose contents
	// (not address) change, so they read the live population with no
	// re-aiming.
	e.opinions, e.next = e.next, e.opinions
	e.ones += onesDelta
	e.round++
	return nil
}

// stepShard advances the non-source agents in [lo, hi) and returns the
// change in the number of 1-opinions over the shard. Each agent draws only
// from its own RNG stream, so shards are independent and the sweep order
// inside a shard never affects other shards — the basis of the parallel
// engine's bit-identical determinism. Under the fused graph contract
// the shard's whole round of counts is computed first, eight agent
// streams at a time (graphObserver.countRound).
//
//fet:hotpath
func (e *agentExecutor) stepShard(lo, hi int, obs reusableObserver) (onesDelta int, err error) {
	if g, ok := obs.(*graphObserver); ok && g.precounts() {
		g.countRound(lo, hi, e.srcs)
	}
	for i := lo; i < hi; i++ {
		obs.bind(i, &e.srcs[i])
		cur := e.opinions.get(i)
		out := e.agents[i].Step(cur, obs)
		if out > 1 {
			//fet:allow alloc: cold error path — taken at most once per run, on a broken Protocol implementation
			return 0, fmt.Errorf("sim: protocol %q produced opinion %d", e.cfg.Protocol.Name(), out)
		}
		e.next.set(i, out)
		onesDelta += int(out) - int(cur)
	}
	return onesDelta, nil
}

// stepParallel hands each precomputed shard to the persistent worker
// pool. Every worker writes a disjoint, word-aligned slice of the next
// bitset and touches only its shard's RNG streams, so the merged result
// is byte-identical to the sequential sweep for any worker count — and
// the whole round performs zero allocations and zero goroutine spawns.
//
//fet:hotpath
func (e *agentExecutor) stepParallel() (int, error) {
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		e.work <- w
	}
	e.wg.Wait()

	onesDelta := 0
	for w := 0; w < e.workers; w++ {
		if e.errs[w] != nil {
			return 0, e.errs[w]
		}
		onesDelta += e.deltas[w]
	}
	return onesDelta, nil
}
