package sim

import (
	"fmt"
	"sync"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// roundExecutor is the pluggable execution layer under Run: it owns the
// population representation and advances it one synchronous round at a
// time, while the orchestrator keeps all protocol-independent bookkeeping.
//
// Implementations: the per-agent executors (exact, fast) hold packed
// opinion bitsets and agent arrays; the trend executor holds packed
// opinions, streams and stored counts for the trend-rule protocols on
// the fast engine; the aggregate executor holds only per-state
// occupancy counts.
type roundExecutor interface {
	// Ones returns the current number of 1-opinions across the whole
	// population, sources included.
	Ones() int
	// Step advances one synchronous round. correct is the opinion the
	// sources currently display (it can change mid-run under
	// Config.FlipCorrectAt; the executor re-pins sources every round).
	Step(correct byte) error
	// close releases executor-owned background resources (the
	// persistent shard workers of a sharded run). A closed executor must
	// not Step again.
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
	case EngineAgentFast, EngineAgentExact:
		e, err := newPooledExecutor(c)
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
// agentExecutor otherwise.
func newPooledExecutor(c *Config) (pooledExecutor, error) {
	if trendSupported(c) {
		e, err := newTrendExecutor(c)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	e, err := newAgentExecutor(c)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// agentExecutor advances an explicit per-agent population. It backs the
// exact and fast engines wherever the trend executor does not apply;
// they differ only in how a round's observations are sampled.
//
// The executor is built once and re-populated per replicate (see
// populate and Pool): every O(n) buffer — the opinion bitsets, the
// initializer scratch, the per-agent RNG states, the agent objects where
// the protocol supports in-place reset, the observation graph's
// adjacency — is reused across replicates, and the round loop itself
// runs with zero steady-state allocations.
type agentExecutor struct {
	cfg Config // the current replicate's configuration
	// population and next are the packed double-buffered opinions: one
	// bit per agent, swapped after every round. Observers hold pointers
	// to the structs (whose addresses never change), so the swap needs no
	// observer re-aiming.
	population
	next   opinionBits
	agents []Agent
	// srcs holds the per-agent generators by value: one reseed per agent
	// per replicate instead of one allocation. Agents capture &srcs[i],
	// which stays valid for the executor's lifetime.
	srcs []rng.Source
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
	// shards runs each round's sweep, one observer per shard.
	shards *shardPool
}

// population is the opinion state both per-agent executors keep: the
// packed opinions and their 1-count, and the initializer seam's
// byte-per-agent scratch, source flags and stream.
type population struct {
	opinions opinionBits
	ones     int // 1-opinions, sources included
	// initBuf is the []byte scratch handed to Initializer.Assign — the
	// initializer seam keeps its byte-per-agent contract (and its RNG
	// draws) and the result is packed into the bitset once per replicate.
	initBuf  []byte
	isSource []bool
	// initSrc is the initializer-stream generator: a field (not an
	// assign local) because it is passed through the Initializer
	// interface seam, which would otherwise heap-allocate it per
	// replicate.
	initSrc rng.Source
}

// newPopulation sizes a population of n agents whose first sources are
// the sources; sampling is uniform, so placement is irrelevant.
func newPopulation(n, sources int) population {
	p := population{initBuf: make([]byte, n), isSource: make([]bool, n)}
	p.opinions.resize(n)
	for i := 0; i < sources; i++ {
		p.isSource[i] = true
	}
	return p
}

// Ones implements roundExecutor.
func (p *population) Ones() int { return p.ones }

// assign sets the starting opinions of c's replicate: the sources at
// c.Correct and everyone else from c.Init on stream 0, the one
// initializer stream.
func (p *population) assign(c *Config) error {
	clear(p.initBuf)
	for i := 0; i < c.Sources; i++ {
		p.initBuf[i] = c.Correct
	}
	p.initSrc.Reseed(rng.StreamSeed(c.Seed, 0))
	c.Init.Assign(p.initBuf, p.isSource, &p.initSrc)
	for i := 0; i < c.Sources; i++ {
		if p.initBuf[i] != c.Correct {
			return fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
		}
	}
	p.opinions.packFrom(p.initBuf)
	p.ones = p.opinions.ones()
	return nil
}

// pinSources re-pins the first sources opinions to correct: under
// FlipCorrectAt the correct opinion changes mid-run, and the displayed
// source opinions must follow before the round's observations.
func (p *population) pinSources(sources int, correct byte) {
	for i := 0; i < sources; i++ {
		if cur := p.opinions.get(i); cur != correct {
			p.ones += int(correct) - int(cur)
			p.opinions.set(i, correct)
		}
	}
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

// newAgentExecutor builds an executor for c.
func newAgentExecutor(c *Config) (*agentExecutor, error) {
	n := c.N
	e := &agentExecutor{
		population:  newPopulation(n, c.Sources),
		agents:      make([]Agent, n),
		srcs:        make([]rng.Source, n),
		sampleSizes: c.Protocol.SampleSizes(),
	}
	e.next.resize(n)

	workers := engineShards(c)
	graph, err := buildGraph(c, workers)
	if err != nil {
		return nil, err
	}
	e.graph = graph

	// The tabulated-binomial fast path applies under uniform mixing on
	// the non-exact engines; graph topologies sample neighbor opinions
	// literally instead.
	fastPath := c.Engine != EngineAgentExact && e.graph == nil
	if fastPath {
		e.tables = newRoundTables(e.sampleSizes)
	}
	e.observers = make([]reusableObserver, workers)
	for w := range e.observers {
		switch {
		case e.graph != nil:
			// Non-complete topology: every agent engine samples neighbor
			// opinions through the packed-row gather; fast and exact
			// coincide here.
			e.observers[w] = newGraphObserver(&e.opinions, e.graph, c)
		case c.Engine == EngineAgentExact:
			e.observers[w] = &exactObserver{ops: &e.opinions, noiseEps: c.NoiseEps}
		default:
			e.observers[w] = &fastObserver{}
		}
	}

	e.shards = newShardPool(c.Sources, n, workers, func(sh, lo, hi int) (int, error) {
		return e.stepShard(lo, hi, e.observers[sh])
	})
	if err := e.populate(*c); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// engineShards returns the number of shards an agent executor splits
// c's round into: Parallelism capped by the non-source population,
// floored at 1 (0 and 1 both mean one shard). It is part of the
// executor's reuse shape.
func engineShards(c *Config) int {
	return max(1, min(c.Parallelism, c.N-c.Sources))
}

// buildGraph builds c's observation graph (nil under uniform mixing)
// from its own derived stream, which complete-topology runs never
// touch, sharding row construction across workers; per-row streams keep
// the result byte-identical at any worker count.
func buildGraph(c *Config, workers int) (*topo.Graph, error) {
	if topo.IsComplete(c.Topology) {
		return nil, nil
	}
	g, err := c.Topology.Build(c.N, rng.StreamSeed(c.Seed, uint64(c.N)+topoStream), workers)
	if err != nil {
		return nil, fmt.Errorf("sim: building topology %q: %w", c.Topology.Name(), err)
	}
	return g, nil
}

// rebuildGraph refills g in place for c's replicate when its seed moved.
func rebuildGraph(g *topo.Graph, c *Config, workers int) error {
	want := rng.StreamSeed(c.Seed, uint64(c.N)+topoStream)
	if g == nil || g.Seed() == want {
		return nil
	}
	if err := topo.Rebuild(g, c.Topology, c.N, want, workers); err != nil {
		return fmt.Errorf("sim: rebuilding topology %q: %w", c.Topology.Name(), err)
	}
	return nil
}

// shardPool runs one round's work over word-aligned shards of the
// non-source range [lo, n). With one shard it calls step inline; with
// more it feeds one shard index per round to each of its persistent
// workers, so a parallel round costs zero goroutine spawns and zero
// allocations. Shard bounds are multiples of 64, so no two shards ever
// read-modify-write the same opinion word, and they affect scheduling
// only: every agent draws from its own stream, so any partition merges
// to the same population.
type shardPool struct {
	lo, hi []int
	deltas []int
	errs   []error
	step   func(sh, lo, hi int) (int, error)
	work   chan int
	wg     sync.WaitGroup // the round's shards
	exited sync.WaitGroup // the workers
	closed bool
}

// newShardPool splits [lo, n) into workers shards and, when there are
// several, starts their workers. step advances one shard and returns
// its change in 1-opinions.
func newShardPool(lo, n, workers int, step func(sh, lo, hi int) (int, error)) *shardPool {
	p := &shardPool{
		lo:     make([]int, workers),
		hi:     make([]int, workers),
		deltas: make([]int, workers),
		errs:   make([]error, workers),
		step:   step,
	}
	prev := lo
	for w := 0; w < workers; w++ {
		hi := n
		if w < workers-1 {
			// Align interior boundaries to 64 so no two shards write the
			// same opinion word.
			hi = min(max((lo+(n-lo)*(w+1)/workers+63)&^63, prev), n)
		}
		p.lo[w], p.hi[w] = prev, hi
		prev = hi
	}
	if workers > 1 {
		p.work = make(chan int)
		p.exited.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer p.exited.Done()
				for sh := range p.work {
					p.deltas[sh], p.errs[sh] = p.step(sh, p.lo[sh], p.hi[sh])
					p.wg.Done()
				}
			}()
		}
	}
	return p
}

// run advances every shard one round and returns the summed change in
// 1-opinions, or the first shard error in shard order.
//
//fet:hotpath
func (p *shardPool) run() (int, error) {
	if p.work == nil {
		return p.step(0, p.lo[0], p.hi[0])
	}
	p.wg.Add(len(p.lo))
	for w := range p.lo {
		p.work <- w
	}
	p.wg.Wait()
	delta := 0
	for w, err := range p.errs {
		if err != nil {
			return 0, err
		}
		delta += p.deltas[w]
	}
	return delta, nil
}

// close stops the persistent workers and returns once they have
// exited. Idempotent.
func (p *shardPool) close() {
	if p.work != nil && !p.closed {
		p.closed = true
		close(p.work)
		p.exited.Wait()
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

	// Stream 0 seeds the initializer; streams 1..n seed the agents.
	if err := e.assign(c); err != nil {
		return err
	}
	e.next.zero()

	m := 0
	if c.Memory.Law == MemoryBinomial {
		m, _ = singleSampleSize(c.Protocol.SampleSizes()) // validated by withDefaults
	}
	reuse := e.agentsReusable
	for i := c.Sources; i < n; i++ {
		e.srcs[i].Reseed(rng.StreamSeed(c.Seed, uint64(i)+1))
		if reuse {
			e.agents[i].(AgentResetter).ResetAgent()
		} else {
			e.agents[i] = c.Protocol.NewAgent(&e.srcs[i])
		}
		switch c.Memory.Law {
		case MemoryUniform:
			if a, ok := e.agents[i].(StateCorruptible); ok {
				a.CorruptState(&e.srcs[i])
			}
		case MemoryBinomial:
			a, ok := e.agents[i].(TrendSeeder)
			if !ok {
				return errNotSeeder(c.Protocol)
			}
			a.SeedPrevCount(e.srcs[i].Binomial(m, c.Memory.X0))
		}
	}
	if !reuse && n > c.Sources {
		// Sources < N is validated, so at least one agent exists; all
		// agents share the protocol's concrete type.
		_, e.agentsReusable = e.agents[c.Sources].(AgentResetter)
	}

	if err := rebuildGraph(e.graph, c, len(e.observers)); err != nil {
		return err
	}
	// The replicate's noise level (the shape — observer kind, view graph
	// — is construction-time).
	for _, obs := range e.observers {
		switch o := obs.(type) {
		case *exactObserver:
			o.noiseEps = c.NoiseEps
		case *graphObserver:
			o.noiseEps = c.NoiseEps
		}
	}
	return nil
}

// close stops the persistent shard workers. Idempotent.
func (e *agentExecutor) close() { e.shards.close() }

// Step implements roundExecutor.
//
//fet:hotpath
func (e *agentExecutor) Step(correct byte) error {
	c := &e.cfg
	n := c.N

	e.pinSources(c.Sources, correct)

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

	onesDelta, err := e.shards.run()
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
// inside a shard never affects other shards — the basis of sharded
// rounds' bit-identical determinism.
//
//fet:hotpath
func (e *agentExecutor) stepShard(lo, hi int, obs reusableObserver) (onesDelta int, err error) {
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
