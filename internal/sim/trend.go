package sim

import (
	"fmt"
	"math/bits"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// This file implements the trend executor (DESIGN.md §10): the round
// executor EngineAgentFast runs one replicate on whenever the protocol
// is a TrendLockstep rule under uniform mixing. It replays the
// per-agent trend-compare update directly against the round's tabulated
// binomial thresholds instead of stepping agent objects: one kernel
// sweeps the population in address order through the fused
// rng.Streams.TrendWord, which draws, decides the compared draw by two
// threshold compares and inverts only the stored draw. It consumes exactly
// the generic fast path's RNG stream layout — StreamSeed(seed, 0) for
// the initializer, StreamSeed(seed, j+1) for agent j, d = DrawsPerRound
// outputs per agent per round — so its results are bit-identical to the
// agentExecutor's.
//
// Degenerate rounds — xObs ∈ {0, 1}, the early worst-case rounds before
// a source observation lands and the absorption tails — are skipped
// entirely: the generic fast path still draws d outputs per agent
// (fastObserver.bind prefetches unconditionally) but the values are
// unused (the p = 0 table answers 0 for every uniform, the p = 1 table
// answers m) and the population cannot move (it is homogeneous and the
// trend rule keeps it there), so the trend executor pins the stored
// counts once per episode, counts the skipped rounds as debt, and
// settles the debt with one bulk rng.Source.Advance(d·debt) per agent
// stream when the run returns to live rounds — which can only happen
// through a FlipCorrectAt source switch, hence at most once per
// replicate. Debt still pending when the run ends is dropped: an
// absorbed population's streams are never read again (the same
// precedent as the graph observer's deferred advances).

// maxTrendCount bounds the protocol's declared sample size on the trend
// executor: stored counts are uint16.
const maxTrendCount = 1<<16 - 1

// trendSupported reports whether the defaulted config c runs on the
// trend executor: EngineAgentFast under uniform mixing, a TrendLockstep
// protocol with d ∈ {1, 2} draws of one declared sample size, agents
// exposing PrevCount/ResetAgent, and no StateInit hook (which would
// need live per-agent objects). NoiseEps, CorruptStates,
// FlipCorrectAt, AbsorbWindow, RunToEnd, RecordTrajectory and Observers
// are all supported. EngineAgentParallel keeps its sharded executor:
// splitting one replicate across cores is its purpose.
func trendSupported(c *Config) bool {
	if c.Engine != EngineAgentFast || !topo.IsComplete(c.Topology) || c.StateInit != nil {
		return false
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
// round's threshold table. Every buffer is allocated at construction
// and reused across replicates through the Pool, and a steady-state
// round allocates nothing.
type trendExecutor struct {
	cfg Config // the current replicate's configuration
	d   int    // protocol draws per round (1 or 2)
	m   int    // the single declared sample size

	// scratch reads the protocol's reset count once per replicate in
	// populate; the kernel never invokes agent Steps.
	scratchReset AgentResetter
	scratchPrev  PrevCounter
	corruptible  bool // the protocol's agents implement StateCorruptible

	isSource []bool
	initBuf  []byte
	// initSrc is the initializer-stream generator: a field (not a
	// populate local) because it is passed through the Initializer
	// interface seam, which would otherwise heap-allocate it per
	// replicate.
	initSrc rng.Source

	// opinions is updated in place: on the tabulated path observations
	// never read the opinion bitset, so there is no double buffer. srcs
	// (word-major, for the vector kernel) and prev are indexed by agent;
	// the sources' entries are unused.
	opinions opinionBits
	srcs     rng.Streams
	prev     []uint16

	ones   int                    // 1-opinions, sources included
	debt   uint32                 // skipped degenerate rounds
	pinned int8                   // pinned prev sign (−1 none, 0, 1)
	thr    rng.BinomialThresholds // the round law
}

// newTrendExecutor builds the trend executor for c, which has passed
// trendSupported, and populates it for c's replicate.
func newTrendExecutor(c *Config) (*trendExecutor, error) {
	proto := c.Protocol.(TrendLockstep)
	m, _ := singleSampleSize(proto.SampleSizes())
	n := c.N
	e := &trendExecutor{
		d:        proto.DrawsPerRound(),
		m:        m,
		isSource: make([]bool, n),
		initBuf:  make([]byte, n),
		prev:     make([]uint16, n),
	}
	e.srcs.Resize(n)
	e.opinions.resize(n)
	for i := 0; i < c.Sources; i++ {
		e.isSource[i] = true
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	e.scratchReset = agent.(AgentResetter)
	e.scratchPrev = agent.(PrevCounter)
	_, e.corruptible = agent.(StateCorruptible)
	if err := e.populate(*c); err != nil {
		return nil, err
	}
	return e, nil
}

// populate initializes the executor for one replicate of c, replaying
// exactly the RNG consumption of the generic populate — initializer
// stream 0, agent streams 1..n with CorruptState draws. It leans on the
// TrendLockstep promise: every agent resets to one count, and
// CorruptState is exactly prevCount = src.Intn(m+1), so one scratch
// agent's reset count and one rng.Streams.Seed pass replace n per-agent
// interface calls.
func (e *trendExecutor) populate(cfg Config) error {
	e.cfg = cfg
	c := &e.cfg
	n, s0 := c.N, c.Sources
	clear(e.initBuf)
	for i := 0; i < s0; i++ {
		e.initBuf[i] = c.Correct
	}
	e.initSrc.Reseed(rng.StreamSeed(c.Seed, 0))
	c.Init.Assign(e.initBuf, e.isSource, &e.initSrc)
	for i := 0; i < s0; i++ {
		if e.initBuf[i] != c.Correct {
			return fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
		}
	}
	e.opinions.packFrom(e.initBuf)
	e.ones = e.opinions.ones()
	bound := 0 // no draws: every agent keeps the reset count
	if c.CorruptStates && e.corruptible {
		bound = e.m + 1
	} else if s0 < n {
		e.scratchReset.ResetAgent()
		p := e.scratchPrev.PrevCount()
		if p < 0 || p > e.m {
			// The kernel indexes the round's threshold table with it.
			return fmt.Errorf("sim: agent %d stores count %d outside [0, %d]", s0, p, e.m)
		}
		prev := e.prev[s0:n]
		for j := range prev {
			prev[j] = uint16(p)
		}
	}
	//fet:allow rngmirror: exactly one Intn(m+1) per agent stream when corrupting, none otherwise — the generic populate's CorruptState draw, which the TrendLockstep promise pins to prevCount = Intn(m+1)
	e.srcs.Seed(c.Seed, s0, n, bound, e.prev)
	e.debt = 0
	e.pinned = -1
	return nil
}

// Ones implements roundExecutor.
func (e *trendExecutor) Ones() int { return e.ones }

// close implements roundExecutor: the trend executor owns no background
// resources.
func (e *trendExecutor) close() {}

// Step implements roundExecutor. A degenerate round (xObs ∈ {0, 1})
// skips its RNG: the stored counts pin to the forced value once per
// episode and the d unused draws per agent accrue as debt. A live round
// first settles any debt with bulk stream advances, then tabulates its
// law and runs the kernel.
//
//fet:hotpath
func (e *trendExecutor) Step(correct byte) error {
	c := &e.cfg
	n, s0 := c.N, c.Sources

	// Re-pin the sources: under FlipCorrectAt the displayed opinions
	// must follow the flip before observations.
	for i := 0; i < s0; i++ {
		if cur := e.opinions.get(i); cur != correct {
			e.ones += int(correct) - int(cur)
			e.opinions.set(i, correct)
		}
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
	e.ones += e.kernel()
	return nil
}

// kernel advances every non-source agent one live round and returns the
// change in 1-opinions. It sweeps the population one opinion word (64
// agents) at a time: rng.Streams.TrendWord draws each agent's d outputs,
// decides the trend rule against the stored count — two threshold
// compares on the compared draw (the verdict), no inversion — inverts
// only the stored draw into prev, and returns the word's up and down
// masks, which the word takes in one or/and-not; the 1-count change is a
// popcount difference. On AVX2 hosts TrendWord steps four agents per
// vector instruction. The sweep is straight-line over preallocated
// buffers: zero allocations, no interface dispatch.
//
//fet:hotpath
func (e *trendExecutor) kernel() int {
	n := e.cfg.N
	words := e.opinions.words
	delta := 0
	for lo := e.cfg.Sources; lo < n; {
		wi := lo >> 6
		hi := min(n, (wi+1)<<6)
		//fet:allow rngmirror: exactly d outputs per agent stream in [lo, hi) — the generic fast path's d tabulated draws per agent per round
		up, down := e.srcs.TrendWord(e.d, &e.thr, e.prev, lo, hi)
		shift := uint(lo) & 63
		old := words[wi]
		w := (old | up<<shift) &^ (down << shift)
		words[wi] = w
		delta += bits.OnesCount64(w) - bits.OnesCount64(old)
		lo = hi
	}
	return delta
}
