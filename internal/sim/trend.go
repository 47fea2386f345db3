package sim

import (
	"fmt"
	"math/bits"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// This file implements the trend executor (DESIGN.md §10): the round
// executor EngineAgentFast runs one replicate on whenever the protocol
// is a TrendLockstep rule, under uniform mixing or on a noiseless graph
// whose packed rows have a power-of-two degree. It replays the per-agent
// trend-compare update directly over a word-major rng.Streams block
// instead of stepping agent objects, sweeping the population one opinion
// word (64 agents) at a time. It consumes exactly the generic path's RNG
// stream layout — StreamSeed(seed, 0) for the initializer,
// StreamSeed(seed, j+1) for agent j, d = DrawsPerRound counts per agent
// per round — so its results are bit-identical to the agentExecutor's.
//
// Under uniform mixing a count is one draw from the round's tabulated
// binomial law: the fused rng.Streams.TrendWord draws, decides the
// compared draw by two threshold compares and inverts only the stored
// draw. Degenerate rounds — xObs ∈ {0, 1}, the early worst-case rounds
// before a source observation lands and the absorption tails — are
// skipped entirely: the generic fast path still draws d outputs per
// agent (a tabulated CountOnes consumes one output at every p) but the
// values are unused (the p = 0 table answers 0 for every uniform, the p = 1
// table answers m) and the population cannot move (it is homogeneous and
// the trend rule keeps it there), so the trend executor pins the stored
// counts once per episode, counts the skipped rounds as debt, and
// settles the debt with one bulk rng.Source.Advance(d·debt) per agent
// stream when the run returns to live rounds — which can only happen
// through a FlipCorrectAt source switch, hence at most once per
// replicate. Debt still pending when the run ends is dropped: an
// absorbed population's streams are never read again.
//
// On a graph a count is m uniform draws over the agent's packed out-row,
// one output each (x >> shift for a power-of-two degree). Per word, the
// graph round packs every agent's row from the adjacency and the current
// opinions in one topo.View.PackRows call (an AVX2 gather kernel on
// degrees 4…64) and counts all of them in place in
// rng.Streams.CountRows, d blocks of m outputs per agent stream. A
// homogeneous row is counted like any other: it reads 0 or m. The
// counts are compared with the stored ones into up and down masks, as
// under uniform mixing, but the new word goes to a second opinion
// buffer: neighbours read the current opinions all round.
//
// Config.Parallelism splits the word loop across word-aligned shards
// (shardPool). Every agent owns its stream and stored count, so any
// partition produces the same bytes.

// maxTrendCount bounds the protocol's declared sample size on the trend
// executor: stored counts are uint16.
const maxTrendCount = 1<<16 - 1

// trendSupported reports whether the defaulted config c runs on the
// trend executor: the agent engine that draws from the protocol's law
// (EngineAgentFast), a TrendLockstep protocol with d ∈ {1, 2} draws of
// one declared sample size, agents exposing PrevCount/ResetAgent, and
// either uniform mixing or a graph whose packed rows have a power-of-two
// degree with no noise — the graph round's one-output draws. Every
// Memory law, FlipCorrectAt, AbsorbWindow, RunToEnd, RecordTrajectory
// and Observers are all supported, and so is NoiseEps under uniform
// mixing.
func trendSupported(c *Config) bool {
	if c.Engine != EngineAgentFast {
		return false
	}
	if !topo.IsComplete(c.Topology) {
		deg, ok := topo.PackedDegree(c.Topology)
		if !ok || rowShift(deg) == 0 || c.NoiseEps > 0 {
			return false
		}
	}
	proto, ok := c.Protocol.(TrendLockstep)
	if !ok {
		return false
	}
	if d := proto.DrawsPerRound(); d < 1 || d > 2 {
		return false
	}
	m, ok := singleSampleSize(proto.SampleSizes())
	if !ok || m < 1 || m > maxTrendCount {
		return false
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	_, prev := agent.(PrevCounter)
	_, reset := agent.(AgentResetter)
	return prev && reset
}

// trendExecutor holds one replicate of a trend-rule population: packed
// opinions, one RNG stream and one stored count per agent, and the
// round's threshold table or observation graph. Every buffer is
// allocated at construction and reused across replicates through the
// Pool, and a steady-state round allocates nothing.
type trendExecutor struct {
	cfg Config // the current replicate's configuration
	d   int    // protocol draws per round (1 or 2)
	m   int    // the single declared sample size

	// scratch is one of the protocol's agents: populate reads its reset
	// count and memory hooks once per replicate; the kernels never
	// invoke agent Steps.
	scratch Agent

	// population holds the opinions. Under uniform mixing they are
	// updated in place (observations never read them); graph rounds
	// write next and swap. srcs (word-major, for the vector kernels) and
	// prev are indexed by agent; the sources' entries are unused.
	population
	srcs rng.Streams
	prev []uint16

	debt   uint32                 // skipped degenerate rounds
	pinned int8                   // pinned prev sign (−1 none, 0, 1)
	thr    rng.BinomialThresholds // the round law

	// shards runs each live round's word loop (engineShards shards).
	shards *shardPool

	// The graph round's state, unused under uniform mixing: the
	// observation graph, rebuilt in place per replicate, the opinions
	// buffer the round writes, and per-shard scratch. shift is
	// 64−log₂(degree), and round numbers the rounds for dynamic
	// rewiring.
	graph   *topo.Graph
	next    opinionBits
	gshards []graphShard
	shift   uint
	round   int
}

// graphShard is one shard's graph-round scratch: its View and, for the
// word the round is on, every agent's row and d counts, indexed from the
// word's first agent.
type graphShard struct {
	view   *topo.View
	rows   [64]uint64
	counts [2][64]int32
}

// newTrendExecutor builds the trend executor for c, which has passed
// trendSupported, and populates it for c's replicate.
func newTrendExecutor(c *Config) (*trendExecutor, error) {
	proto := c.Protocol.(TrendLockstep)
	m, _ := singleSampleSize(proto.SampleSizes())
	n := c.N
	e := &trendExecutor{
		d:          proto.DrawsPerRound(),
		m:          m,
		population: newPopulation(n, c.Sources),
		prev:       make([]uint16, n),
	}
	e.srcs.Resize(n)
	var s rng.Source
	e.scratch = proto.NewAgent(&s)

	workers := engineShards(c)
	graph, err := buildGraph(c, workers)
	if err != nil {
		return nil, err
	}
	if graph != nil {
		e.graph = graph
		e.next.resize(n)
		e.shift = rowShift(graph.Degree())
		e.gshards = make([]graphShard, workers)
		for w := range e.gshards {
			e.gshards[w].view = graph.NewView()
		}
	}
	e.shards = newShardPool(c.Sources, n, workers, e.stepShard)
	if err := e.populate(*c); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// populate initializes the executor for one replicate of c, replaying
// exactly the RNG consumption of the generic populate — initializer
// stream 0, agent streams 1..n with their memory-law draws. It leans on
// the TrendLockstep promise: every agent resets to one count,
// CorruptState is exactly prevCount = src.Intn(m+1) and SeedPrevCount
// stores its count, so one scratch agent's reset count and one
// rng.Streams.Seed pass — plus, under MemoryBinomial, one
// Binomial(m, X0) per agent stream — replace n per-agent interface
// calls.
func (e *trendExecutor) populate(cfg Config) error {
	e.cfg = cfg
	c := &e.cfg
	n, s0 := c.N, c.Sources
	if err := e.assign(c); err != nil {
		return err
	}
	if _, ok := e.scratch.(TrendSeeder); c.Memory.Law == MemoryBinomial && !ok {
		return errNotSeeder(c.Protocol)
	}
	_, corruptible := e.scratch.(StateCorruptible)
	bound := 0 // no draws: every agent keeps the reset count
	if c.Memory.Law == MemoryUniform && corruptible {
		bound = e.m + 1
	} else if s0 < n {
		e.scratch.(AgentResetter).ResetAgent()
		p := e.scratch.(PrevCounter).PrevCount()
		if p < 0 || p > e.m {
			// The kernel indexes the round's threshold table with it.
			return fmt.Errorf("sim: agent %d stores count %d outside [0, %d]", s0, p, e.m)
		}
		prev := e.prev[s0:n]
		for j := range prev {
			prev[j] = uint16(p)
		}
	}
	//fet:allow rngmirror: exactly one Intn(m+1) per agent stream under MemoryUniform, none otherwise — the generic populate's CorruptState draw, which the TrendLockstep promise pins to prevCount = Intn(m+1)
	e.srcs.Seed(c.Seed, s0, n, bound, e.prev)
	if c.Memory.Law == MemoryBinomial {
		var src rng.Source
		for j := s0; j < n; j++ {
			e.srcs.Load(j, &src)
			e.prev[j] = uint16(src.Binomial(e.m, c.Memory.X0))
			e.srcs.Store(j, &src)
		}
	}
	e.debt = 0
	e.pinned = -1
	e.round = 0
	return rebuildGraph(e.graph, c, len(e.gshards))
}

// close implements roundExecutor: it stops the shard workers.
func (e *trendExecutor) close() { e.shards.close() }

// Step implements roundExecutor. A graph round runs the word loop over
// the shards and swaps the opinion buffers. Under uniform mixing, a
// degenerate round (xObs ∈ {0, 1}) skips its RNG: the stored counts pin
// to the forced value once per episode and the d unused draws per agent
// accrue as debt. A live round first settles any debt with bulk stream
// advances, then tabulates its law and runs the kernel over the shards.
//
//fet:hotpath
func (e *trendExecutor) Step(correct byte) error {
	c := &e.cfg
	n, s0 := c.N, c.Sources
	e.pinSources(s0, correct)
	if e.graph != nil {
		delta, _ := e.shards.run()
		// Words holding only sources are outside every shard.
		copy(e.next.words[:s0>>6], e.opinions.words[:s0>>6])
		e.opinions, e.next = e.next, e.opinions
		e.ones += delta
		e.round++
		return nil
	}

	xObs := observedFraction(float64(e.ones)/float64(n), c.NoiseEps)
	if xObs == 0 || xObs == 1 {
		pin, pv := uint16(0), int8(0)
		if xObs == 1 {
			pin, pv = uint16(e.m), 1
		}
		if e.pinned != pv {
			prev := e.prev[s0:n]
			for j := range prev {
				prev[j] = pin
			}
			e.pinned = pv
		}
		e.debt++
		return nil
	}
	if e.debt > 0 {
		//fet:allow rngmirror: settles exactly debt·d deferred draws per agent stream — the outputs the skipped degenerate rounds would have consumed
		e.srcs.Advance(s0, n, int(e.debt)*e.d)
		e.debt = 0
	}
	e.pinned = -1
	e.thr.Reset(e.m, xObs)
	delta, _ := e.shards.run()
	e.ones += delta
	return nil
}

// stepShard advances the non-source agents [lo, hi) of shard sh one
// round and returns the change in 1-opinions.
//
//fet:hotpath
func (e *trendExecutor) stepShard(sh, lo, hi int) (int, error) {
	if e.graph != nil {
		return e.graphWords(sh, lo, hi), nil
	}
	return e.kernel(lo, hi), nil
}

// kernel advances the agents [lo, hi) one live round under uniform
// mixing and returns the change in 1-opinions. It sweeps them one
// opinion word (64 agents) at a time: rng.Streams.TrendWord draws each
// agent's d outputs, decides the trend rule against the stored count —
// two threshold compares on the compared draw (the verdict), no
// inversion — inverts only the stored draw into prev, and returns the
// word's up and down masks, which the word takes in one or/and-not; the
// 1-count change is a popcount difference. On AVX2 hosts TrendWord
// steps four agents per vector instruction. The sweep is straight-line
// over preallocated buffers: zero allocations, no interface dispatch.
//
//fet:hotpath
func (e *trendExecutor) kernel(lo, hi int) int {
	words := e.opinions.words
	delta := 0
	for lo < hi {
		wi := lo >> 6
		whi := min(hi, (wi+1)<<6)
		//fet:allow rngmirror: exactly d outputs per agent stream in [lo, whi) — the generic fast path's d tabulated draws per agent per round
		up, down := e.srcs.TrendWord(e.d, &e.thr, e.prev, lo, whi)
		delta += applyWord(words, words, lo, up, down)
		lo = whi
	}
	return delta
}

// graphWords advances the agents [lo, hi) one graph round through shard
// sh's scratch, and returns the change in 1-opinions. Per opinion word
// topo.View.PackRows gathers every agent's row, rng.Streams.CountRows
// counts them all in place, and the counts decide the trend rule
// against prev exactly as the agents' Step would, the new word going to
// e.next.
//
//fet:hotpath
func (e *trendExecutor) graphWords(sh, lo, hi int) int {
	w := &e.gshards[sh]
	v := w.view
	v.NewRound(e.round)
	cur, next := e.opinions.words, e.next.words
	last := e.d - 1
	delta := 0
	for lo < hi {
		wi := lo >> 6
		whi := min(hi, (wi+1)<<6)
		rows := w.rows[:whi-lo]
		v.PackRows(lo, cur, rows)
		//fet:allow rngmirror: exactly d·m outputs per agent stream in [lo, whi) — the generic graph path's d CountOnes calls of m one-output draws
		e.srcs.CountRows(lo, whi, rows, e.shift, e.m, w.counts[:e.d])
		var up, down uint64
		prev := e.prev[lo:whi]
		for k, p := range prev {
			c := w.counts[0][k]
			var u, dn uint64
			if c > int32(p) {
				u = 1
			}
			if c < int32(p) {
				dn = 1
			}
			up |= u << uint(k)
			down |= dn << uint(k)
			prev[k] = uint16(w.counts[last][k])
		}
		delta += applyWord(next, cur, lo, up, down)
		lo = whi
	}
	return delta
}

// applyWord writes to dst the word of src holding agent lo with the
// verdict masks applied — bit j of up (down) moves agent lo+j to 1 (0)
// — and returns the word's change in 1-opinions.
func applyWord(dst, src []uint64, lo int, up, down uint64) int {
	wi, shift := lo>>6, uint(lo)&63
	old := src[wi]
	w := (old | up<<shift) &^ (down << shift)
	dst[wi] = w
	return bits.OnesCount64(w) - bits.OnesCount64(old)
}
