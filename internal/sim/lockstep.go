package sim

import (
	"context"
	"fmt"
	"math/bits"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// This file implements the lockstep replicate engine (DESIGN.md §10): up
// to 64 replicates of one configuration — same shape, different
// per-replicate seeds — advance through the round loop together, with
// the population transposed so that one uint64 word holds the same
// agent's opinion across all lanes, while each lane's per-agent state
// (streams, stored counts) is one contiguous block. The per-agent
// trend-compare update (the TrendLockstep contract) is replayed directly
// against per-lane tabulated binomial thresholds, one lane at a time,
// with the xoshiro draws inlined into one kernel that sweeps the lane's
// agents in address order; the compared draw is decided by two
// threshold compares (trendVerdict) and only the stored draw is
// inverted. A batch amortizes the round loop's dispatch and bookkeeping
// across W replicates while staying bit-identical to running each lane
// alone: every lane consumes
// exactly the sequential fast path's RNG stream layout
// (StreamSeed(laneSeed, 0) initializer, StreamSeed(laneSeed, j+1) for
// agent j, d = DrawsPerRound outputs per agent per round).
//
// Degenerate rounds — xObs ∈ {0, 1}, the early worst-case rounds before
// a source observation lands and the absorption tails — are skipped
// entirely: the sequential fast path still draws d outputs per agent
// (fastObserver.bind prefetches unconditionally) but the values are
// unused (the p = 0 table answers 0 for every uniform, the p = 1 table
// answers m) and the population cannot move (it is homogeneous and the
// trend rule keeps it there), so the lockstep engine pins the stored
// counts once per episode, counts the skipped rounds as per-lane debt,
// and settles the debt with one bulk rng.Source.Advance(d·debt) per
// agent stream when the lane returns to live rounds — which can only
// happen through a FlipCorrectAt source switch, hence at most once per
// replicate. Debt still pending at retirement is dropped: an absorbed
// lane's streams are never read again (the same precedent as the graph
// observer's deferred advances).

// maxLockstepLanes is the lane capacity of one lockstep batch: one bit
// per lane in the transposed opinion words.
const maxLockstepLanes = 64

// maxLockstepCount bounds the protocol's declared sample size on the
// lockstep path: stored counts live in uint16 lane columns.
const maxLockstepCount = 1<<16 - 1

// LaneRun describes one replicate (lane) of a lockstep batch: its root
// seed and its private observer list (the batch template's
// Config.Observers is ignored — observers are inherently per-replicate).
type LaneRun struct {
	Seed      uint64
	Observers []Observer
}

// LaneResult is one lane's outcome: exactly the (Result, error) pair the
// same configuration would produce run alone through Pool.RunContext.
type LaneResult struct {
	Result Result
	Err    error
}

// LockstepWidth returns the batch width a scheduler should group cfg's
// replicates into: requested when cfg can run on the lockstep executor,
// 1 otherwise (and for an invalid cfg, whose replicates then report the
// error one by one). Replicates the lockstep executor cannot run gain
// nothing from sharing a task — RunLockstep would run its lanes one
// after another on a single goroutine — so schedulers spread them one
// per task across their workers instead.
func LockstepWidth(cfg Config, requested int) int {
	if requested <= 1 {
		return 1
	}
	c, err := cfg.withDefaults()
	if err != nil || !lockstepSupported(&c) {
		return 1
	}
	return requested
}

// lockstepSupported reports whether the defaulted config c can run on
// the lockstep executor: a tabulated-fast-path engine (EngineAgentFast,
// or EngineAgentParallel, which is defined to be bit-identical to fast)
// under uniform mixing, a TrendLockstep protocol with d ∈ {1, 2} draws
// of one declared sample size, agents exposing PrevCount/ResetAgent,
// and no StateInit hook (which would need live per-agent objects).
// NoiseEps and CorruptStates are supported; FlipCorrectAt, AbsorbWindow,
// RunToEnd, RecordTrajectory and Observers are driver-level and always
// supported.
func lockstepSupported(c *Config) bool {
	if c.Engine != EngineAgentFast && c.Engine != EngineAgentParallel {
		return false
	}
	if !topo.IsComplete(c.Topology) || c.StateInit != nil {
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
	if !ok || m < 1 || m > maxLockstepCount {
		return false
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	if _, ok := agent.(PrevCounter); !ok {
		return false
	}
	if _, ok := agent.(AgentResetter); !ok {
		return false
	}
	return true
}

// lockstepExecutor holds the transposed population of one batch. All
// O(n·W) buffers are allocated at construction and reused across
// batches through the pool, and a steady-state round allocates nothing.
type lockstepExecutor struct {
	cfg *Config
	d   int // protocol draws per round (1 or 2)
	m   int // the single declared sample size

	// scratch replays per-agent construction-time RNG (CorruptState)
	// during populate; the lockstep kernel never invokes agent Steps.
	scratchReset   AgentResetter
	scratchPrev    PrevCounter
	scratchCorrupt StateCorruptible // nil when the agent is incorruptible

	isSource []bool
	initBuf  []byte
	// initSrc is the initializer-stream scratch generator: a field (not
	// a populate local) because it is passed through the Initializer
	// interface seam, which would otherwise heap-allocate it per lane.
	initSrc rng.Source

	// srcs and prev are lane-major: index lane*n+agent, so one lane's
	// agents are contiguous for the kernel's per-lane sweep (and for
	// populate, the degenerate pin and the debt settlement). cur is the
	// transposed opinion buffer: bit l of cur[j] is agent j's opinion in
	// lane l. There is no double buffer — on the tabulated fast path
	// observations never read the opinion bitset, so in-place update is
	// byte-equivalent to the sequential engine's swap.
	srcs []rng.Source
	prev []uint16
	cur  []uint64

	ones   []int                    // per-lane 1-opinion counts
	debt   []uint32                 // per-lane skipped degenerate rounds
	pinned []int8                   // per-lane pinned prev sign (−1 none, 0, 1)
	thr    []rng.BinomialThresholds // per-lane round law

	states []laneState // per-lane driver bookkeeping, pooled with the buffers
}

// newLockstepExecutor allocates the transposed buffers for batches of
// exactly lanes replicates of c's shape. The caller has checked
// lockstepSupported.
func newLockstepExecutor(c *Config, lanes int) *lockstepExecutor {
	proto := c.Protocol.(TrendLockstep)
	m, _ := singleSampleSize(proto.SampleSizes())
	n := c.N
	e := &lockstepExecutor{
		d:        proto.DrawsPerRound(),
		m:        m,
		isSource: make([]bool, n),
		initBuf:  make([]byte, n),
		srcs:     make([]rng.Source, n*lanes),
		prev:     make([]uint16, n*lanes),
		cur:      make([]uint64, n),
		ones:     make([]int, lanes),
		debt:     make([]uint32, lanes),
		pinned:   make([]int8, lanes),
		thr:      make([]rng.BinomialThresholds, lanes),
		states:   make([]laneState, lanes),
	}
	for i := 0; i < c.Sources; i++ {
		e.isSource[i] = true
	}
	var s rng.Source
	agent := proto.NewAgent(&s)
	e.scratchReset = agent.(AgentResetter)
	e.scratchPrev = agent.(PrevCounter)
	e.scratchCorrupt, _ = agent.(StateCorruptible)
	return e
}

// populate initializes the executor for one batch, replaying per lane
// exactly the RNG consumption of the sequential populate — initializer
// stream 0, agent streams 1..n with CorruptState draws — so every lane
// starts from the state its replicate would reach alone.
func (e *lockstepExecutor) populate(c *Config, lanes []LaneRun) error {
	e.cfg = c
	n, s0 := c.N, c.Sources
	cur := e.cur
	for j := range cur {
		cur[j] = 0
	}
	for l := range lanes {
		seed := lanes[l].Seed
		for i := range e.initBuf {
			e.initBuf[i] = 0
		}
		for i := 0; i < s0; i++ {
			e.initBuf[i] = c.Correct
		}
		e.initSrc.Reseed(rng.StreamSeed(seed, 0))
		c.Init.Assign(e.initBuf, e.isSource, &e.initSrc)
		for i := 0; i < s0; i++ {
			if e.initBuf[i] != c.Correct {
				return fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
			}
		}
		shift := uint(l)
		ones := 0
		for j, b := range e.initBuf {
			b &= 1
			cur[j] |= uint64(b) << shift
			ones += int(b)
		}
		e.ones[l] = ones
		srcs := e.srcs[l*n+s0 : (l+1)*n]
		prev := e.prev[l*n+s0 : (l+1)*n]
		corrupt := c.CorruptStates && e.scratchCorrupt != nil
		for i := range srcs {
			src := &srcs[i]
			src.Reseed(rng.StreamSeed(seed, uint64(s0+i)+1))
			e.scratchReset.ResetAgent()
			if corrupt {
				e.scratchCorrupt.CorruptState(src)
			}
			prev[i] = uint16(e.scratchPrev.PrevCount())
		}
		e.debt[l] = 0
		e.pinned[l] = -1
	}
	return nil
}

// stepRound advances every active lane one synchronous round. correct is
// the sources' current opinion (identical across active lanes — the
// flip schedule is configuration-level).
//
//fet:hotpath
func (e *lockstepExecutor) stepRound(correct byte, active uint64) {
	c := e.cfg
	n, s0 := c.N, c.Sources

	// Re-pin the sources in every active lane (under FlipCorrectAt the
	// displayed opinions must follow the flip before observations).
	var want uint64
	if correct == OpinionOne {
		want = ^uint64(0)
	}
	for i := 0; i < s0; i++ {
		changed := (e.cur[i] ^ want) & active
		if changed == 0 {
			continue
		}
		for msk := changed; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros64(msk)
			if correct == OpinionOne {
				e.ones[l]++
			} else {
				e.ones[l]--
			}
		}
		e.cur[i] = (e.cur[i] &^ active) | (want & active)
	}

	// Classify lanes. A degenerate lane (xObs ∈ {0, 1}) skips its RNG:
	// the stored counts pin to the forced value once per episode and the
	// d unused draws per agent accrue as debt. A live lane first settles
	// any debt with bulk stream advances, then tabulates its round law.
	var live uint64
	for msk := active; msk != 0; msk &= msk - 1 {
		l := bits.TrailingZeros64(msk)
		x := float64(e.ones[l]) / float64(n)
		xObs := observedFraction(x, c.NoiseEps)
		if xObs == 0 || xObs == 1 {
			pin, pv := uint16(0), int8(0)
			if xObs == 1 {
				pin, pv = uint16(e.m), 1
			}
			if e.pinned[l] != pv {
				prev := e.prev[l*n+s0 : (l+1)*n]
				for j := range prev {
					prev[j] = pin
				}
				e.pinned[l] = pv
			}
			e.debt[l]++
			continue
		}
		if e.debt[l] > 0 {
			adv := int(e.debt[l]) * e.d
			srcs := e.srcs[l*n+s0 : (l+1)*n]
			for j := range srcs {
				//fet:allow rngmirror: settles exactly debt·d deferred draws per agent stream — the outputs the skipped degenerate rounds would have consumed
				srcs[j].Advance(adv)
			}
			e.debt[l] = 0
		}
		e.pinned[l] = -1
		e.thr[l].Reset(e.m, xObs)
		live |= 1 << uint(l)
	}
	for msk := live; msk != 0; msk &= msk - 1 {
		l := bits.TrailingZeros64(msk)
		e.ones[l] += e.kernel(l)
	}
}

// kernel advances live lane l one round and returns the lane's change
// in 1-opinions. It is one contiguous sweep over the lane's non-source
// agents: per agent it draws the protocol's d stream outputs with the
// xoshiro step inlined, applies the trend-compare rule against the
// stored count, and flips bit l of the agent's opinion word. The rule
// needs only the sign of c′ − p, which two threshold compares decide
// without inverting the first draw (trendVerdict); only the stored draw
// — FET's second, SimpleTrend's single — is inverted, with the guide
// table starting its scan within an expected single compare of the
// answer. The lane's tables, bit shift and delta are locals, and the
// sweep is straight-line over preallocated buffers: zero allocations,
// no interface dispatch.
//
//fet:hotpath
func (e *lockstepExecutor) kernel(l int) int {
	c := e.cfg
	n, s0 := c.N, c.Sources
	t := e.thr[l].Thresholds()
	g := e.thr[l].Guide()
	srcs := e.srcs[l*n+s0 : (l+1)*n]
	prev := e.prev[l*n+s0 : (l+1)*n]
	// Reslicing to len(srcs) lets the compiler drop the bounds checks on
	// prev[j] and cur[j] in the sweeps.
	cur := e.cur[s0:n]
	cur = cur[:len(srcs)]
	prev = prev[:len(srcs)]
	shift := uint(l) & 63 // l < 64; the mask spares the compiler's oversized-shift guard
	delta := 0
	if e.d == 2 {
		for j := range srcs {
			src := &srcs[j]
			p := int(prev[j])
			//fet:allow rngmirror: one output per protocol draw — the same single consumption as the tabulated SampleU path
			up, down := trendVerdict(t, src.Uint64()>>11, p)
			//fet:allow rngmirror: second of the protocol's d=2 draws, single consumption as above
			mant := src.Uint64() >> 11
			k := int(g[mant>>rng.GuideShift])
			for mant >= t[k] {
				k++
			}
			prev[j] = uint16(k)
			var dj int
			cur[j], dj = setTrendBit(cur[j], shift, up, down)
			delta += dj
		}
		return delta
	}
	for j := range srcs {
		//fet:allow rngmirror: one output per protocol draw — the same single consumption as the tabulated SampleU path
		mant := srcs[j].Uint64() >> 11
		k := int(g[mant>>rng.GuideShift])
		for mant >= t[k] {
			k++
		}
		p := int(prev[j])
		prev[j] = uint16(k)
		var dj int
		cur[j], dj = setTrendBit(cur[j], shift, k > p, k < p)
		delta += dj
	}
	return delta
}

// setTrendBit applies the trend rule's outcome to bit shift of the
// opinion word w: set it when up, clear it when down, keep it
// otherwise. It returns the new word and the change in 1-opinions.
func setTrendBit(w uint64, shift uint, up, down bool) (uint64, int) {
	bit := (w >> shift) & 1
	out := bit
	if up {
		out = 1
	}
	if down {
		out = 0
	}
	return w ^ (out^bit)<<shift, int(out) - int(bit)
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

// runLockstepLoop drives one populated batch to completion: the shared
// round counter advances all active lanes together, each lane's
// laneState applies exactly the sequential loop's bookkeeping, and a
// lane retires — with its Result or error written to out — the moment
// its own run would have ended. Context cancellation errors every lane
// still active; already-retired lanes keep their results, matching what
// each replicate would observe run alone.
func runLockstepLoop(ctx context.Context, c *Config, e *lockstepExecutor, lanes []LaneRun, out []LaneResult) {
	W := len(lanes)
	active := ^uint64(0) >> uint(64-W)
	for l := 0; l < W; l++ {
		e.states[l].init(c, lanes[l].Observers, e.ones[l])
	}
	for round := 0; round < c.MaxRounds && active != 0; round++ {
		if err := ctx.Err(); err != nil {
			for msk := active; msk != 0; msk &= msk - 1 {
				out[bits.TrailingZeros64(msk)] = LaneResult{Err: err}
			}
			return
		}
		for msk := active; msk != 0; msk &= msk - 1 {
			e.states[bits.TrailingZeros64(msk)].maybeFlip(round)
		}
		// All active lanes share one correct opinion: the flip schedule
		// is part of the batch's common configuration.
		e.stepRound(e.states[bits.TrailingZeros64(active)].correct, active)
		for msk := active; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros64(msk)
			halt, err := e.states[l].afterRound(round, e.ones[l])
			if err != nil {
				out[l] = LaneResult{Err: err}
				active &^= 1 << uint(l)
				continue
			}
			if halt {
				out[l] = LaneResult{Result: e.states[l].result(round+1, e.ones[l])}
				active &^= 1 << uint(l)
			}
		}
	}
	for msk := active; msk != 0; msk &= msk - 1 {
		l := bits.TrailingZeros64(msk)
		out[l] = LaneResult{Result: e.states[l].result(c.MaxRounds, e.ones[l])}
	}
}
