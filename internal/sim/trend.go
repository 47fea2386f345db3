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
// sweeps the population in address order with the xoshiro draws
// inlined, decides the compared draw by two threshold compares
// (trendVerdict) and inverts only the stored draw. It consumes exactly
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

	// scratch replays per-agent construction-time RNG (CorruptState)
	// during populate; the kernel never invokes agent Steps.
	scratchReset   AgentResetter
	scratchPrev    PrevCounter
	scratchCorrupt StateCorruptible // nil when the agent is incorruptible

	isSource []bool
	initBuf  []byte
	// initSrc is the initializer-stream generator: a field (not a
	// populate local) because it is passed through the Initializer
	// interface seam, which would otherwise heap-allocate it per
	// replicate.
	initSrc rng.Source

	// opinions is updated in place: on the tabulated path observations
	// never read the opinion bitset, so there is no double buffer. srcs
	// and prev are indexed by agent; the sources' entries are unused.
	opinions opinionBits
	srcs     []rng.Source
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
		srcs:     make([]rng.Source, n),
		prev:     make([]uint16, n),
	}
	e.opinions.resize(n)
	for i := 0; i < c.Sources; i++ {
		e.isSource[i] = true
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	e.scratchReset = agent.(AgentResetter)
	e.scratchPrev = agent.(PrevCounter)
	e.scratchCorrupt, _ = agent.(StateCorruptible)
	if err := e.populate(*c); err != nil {
		return nil, err
	}
	return e, nil
}

// populate initializes the executor for one replicate of c, replaying
// exactly the RNG consumption of the generic populate — initializer
// stream 0, agent streams 1..n with CorruptState draws.
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
	corrupt := c.CorruptStates && e.scratchCorrupt != nil
	for j := s0; j < n; j++ {
		src := &e.srcs[j]
		src.Reseed(rng.StreamSeed(c.Seed, uint64(j)+1))
		e.scratchReset.ResetAgent()
		if corrupt {
			e.scratchCorrupt.CorruptState(src)
		}
		e.prev[j] = uint16(e.scratchPrev.PrevCount())
	}
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
		adv := int(e.debt) * e.d
		srcs := e.srcs[s0:n]
		for j := range srcs {
			//fet:allow rngmirror: settles exactly debt·d deferred draws per agent stream — the outputs the skipped degenerate rounds would have consumed
			srcs[j].Advance(adv)
		}
		e.debt = 0
	}
	e.pinned = -1
	e.thr.Reset(e.m, xObs)
	e.ones += e.kernel()
	return nil
}

// kernel advances every non-source agent one live round and returns the
// change in 1-opinions. It sweeps the population one opinion word at a
// time: per agent it draws the protocol's d stream outputs with the
// xoshiro step inlined, applies the trend-compare rule against the
// stored count and updates the agent's bit in a register copy of the
// word. The rule needs only the sign of c′ − p, which two threshold
// compares decide without inverting the first draw (trendVerdict); only
// the stored draw — FET's second, SimpleTrend's single — is inverted,
// with the guide table starting its scan within an expected single
// compare of the answer. The sweep is straight-line over preallocated
// buffers: zero allocations, no interface dispatch.
//
//fet:hotpath
func (e *trendExecutor) kernel() int {
	n := e.cfg.N
	t := e.thr.Thresholds()
	g := e.thr.Guide()
	words := e.opinions.words
	delta := 0
	for lo := e.cfg.Sources; lo < n; {
		wi := lo >> 6
		hi := min(n, (wi+1)<<6)
		srcs := e.srcs[lo:hi]
		// Reslicing to len(srcs) lets the compiler drop the bounds
		// checks on prev[j].
		prev := e.prev[lo:hi]
		prev = prev[:len(srcs)]
		shift := uint(lo) & 63
		old := words[wi]
		w := old
		if e.d == 2 {
			for j := range srcs {
				src := &srcs[j]
				//fet:allow rngmirror: one output per protocol draw — the same single consumption as the tabulated SampleU path
				up, down := trendVerdict(t, src.Uint64()>>11, int(prev[j]))
				//fet:allow rngmirror: second of the protocol's d=2 draws, single consumption as above
				mant := src.Uint64() >> 11
				k := int(g[mant>>rng.GuideShift])
				for mant >= t[k] {
					k++
				}
				prev[j] = uint16(k)
				w = setTrendBit(w, shift+uint(j), up, down)
			}
		} else {
			for j := range srcs {
				//fet:allow rngmirror: one output per protocol draw — the same single consumption as the tabulated SampleU path
				mant := srcs[j].Uint64() >> 11
				k := int(g[mant>>rng.GuideShift])
				for mant >= t[k] {
					k++
				}
				p := int(prev[j])
				prev[j] = uint16(k)
				w = setTrendBit(w, shift+uint(j), k > p, k < p)
			}
		}
		words[wi] = w
		delta += bits.OnesCount64(w) - bits.OnesCount64(old)
		lo = hi
	}
	return delta
}

// setTrendBit applies the trend rule's outcome to bit i of the opinion
// word w: set it when up, clear it when down, keep it otherwise (up and
// down are never both true).
func setTrendBit(w uint64, i uint, up, down bool) uint64 {
	bit := uint64(1) << (i & 63)
	var set, clr uint64
	if up {
		set = bit
	}
	if down {
		clr = bit
	}
	return (w | set) &^ clr
}

// trendVerdict decides the trend rule for one draw without inverting
// it: with c′ the count mant inverts to against the threshold table t
// (the smallest k with mant < t[k]) and p ∈ [0, m] the stored count, it
// reports up = c′ > p and down = c′ < p. t is nondecreasing on [0, m)
// and every 53-bit mant lies below t[m] = 2^53, so "mant < t[k]" is
// monotone in k and c′ > p ⟺ mant ≥ t[p], c′ < p ⟺ p > 0 ∧ mant <
// t[p−1]. (At p = m the first compare is never true: mant < 2^53.)
func trendVerdict(t []uint64, mant uint64, p int) (up, down bool) {
	up = mant >= t[p]
	down = p > 0 && mant < t[p-1]
	return up, down
}
