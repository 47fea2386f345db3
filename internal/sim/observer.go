package sim

import (
	"fmt"
	"math/bits"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// exactObserver implements Observation by sampling agent indices uniformly
// with replacement and reading their opinion bits — the operational
// definition of the PULL model.
type exactObserver struct {
	ops *opinionBits
	src *rng.Source
	// noiseEps flips each observed bit independently (0 = noiseless).
	noiseEps float64
}

func (o *exactObserver) bind(_ int, src *rng.Source)         { o.src = src }
func (o *exactObserver) newRound(int, float64, []roundTable) {}

func (o *exactObserver) CountOnes(m int) int {
	count := 0
	for i := 0; i < m; i++ {
		count += int(o.Sample())
	}
	return count
}

func (o *exactObserver) Sample() byte {
	b := o.ops.get(o.src.Intn(o.ops.n))
	if o.noiseEps > 0 && o.src.Bernoulli(o.noiseEps) {
		return 1 - b
	}
	return b
}

// observedFraction returns the effective probability that a single noisy
// observation reads 1 when the true fraction of 1-opinions is x: each bit
// flips independently with probability eps.
func observedFraction(x, eps float64) float64 {
	if eps <= 0 {
		return x
	}
	return x*(1-eps) + (1-x)*eps
}

// maxFixedDraws bounds the fast observer's per-agent prefetch buffer; a
// FixedDraws protocol declaring more draws per round falls back to the
// unbatched path.
const maxFixedDraws = 8

// fastObserver implements Observation by drawing counts directly from
// Binomial(m, x_t): under passive communication, observing m uniform
// agents with replacement reveals exactly a Binomial(m, x_t) count of
// 1-opinions, so this is distributionally identical to exactObserver.
//
// For FixedDraws protocols (draws > 0), bind prefetches the agent's
// whole round of stream outputs in one bulk rng.Source.Fill and the
// sampling calls consume them in order. Because a tabulated Sample
// consumes exactly one output per call, the consumed values — and the
// agent stream's state after the round — are bit-identical to the
// unbatched per-draw path.
type fastObserver struct {
	x      float64 // current fraction of 1-opinions
	tables []roundTable
	src    *rng.Source
	// draws is the protocol's declared per-round stream consumption
	// (0 disables batching).
	draws     int
	pos, have int
	buf       [maxFixedDraws]uint64
}

// roundTable caches one Binomial(m, x_t) inverse-CDF table for the round.
// The executor owns the tables and retabulates them in place per round.
type roundTable struct {
	m   int
	tab *rng.BinomialCDF
}

func (o *fastObserver) bind(_ int, src *rng.Source) {
	o.src = src
	if o.draws > 0 {
		// Exact mirror: prefetches the protocol's declared per-round
		// consumption (FixedDraws); each tabulated Sample/CountOnes call
		// consumes exactly one buffered output, in draw order.
		//fet:allow rngmirror: Fill(draws) = the declared FixedDraws budget, consumed one per sampling call
		src.Fill(o.buf[:o.draws])
		o.pos, o.have = 0, o.draws
	}
}

func (o *fastObserver) newRound(_ int, x float64, tables []roundTable) {
	o.x = x
	o.tables = tables
	o.pos, o.have = 0, 0
}

//fet:hotpath
func (o *fastObserver) CountOnes(m int) int {
	for i := range o.tables {
		if t := &o.tables[i]; t.m == m {
			if o.pos < o.have {
				u := rng.UnitFloat(o.buf[o.pos])
				o.pos++
				return t.tab.SampleU(u)
			}
			return t.tab.Sample(o.src)
		}
	}
	// Sample size not pre-declared by the protocol: fall back to a direct
	// draw, which is exact but slower. (A FixedDraws protocol never takes
	// this path — its contract is that every CountOnes size is declared.)
	return o.src.Binomial(m, o.x)
}

//fet:hotpath
func (o *fastObserver) Sample() byte {
	// Mirrors Source.Bernoulli(x) exactly, including consuming no stream
	// output when x is outside (0, 1), but reads any prefetched value
	// first.
	if o.x <= 0 {
		return OpinionZero
	}
	if o.x >= 1 {
		return OpinionOne
	}
	var u float64
	if o.pos < o.have {
		u = rng.UnitFloat(o.buf[o.pos])
		o.pos++
	} else {
		u = o.src.Float64()
	}
	if u < o.x {
		return OpinionOne
	}
	return OpinionZero
}

// maxGraphPrefetch caps the graph observer's per-round bulk prefetch
// (in stream outputs). Prefetching less than a round's guaranteed
// consumption is always stream-exact, so the cap only bounds memory for
// adversarially large sample sizes.
const maxGraphPrefetch = 4096

// graphObserver implements Observation on a non-complete topology: it
// draws uniform (with replacement) out-neighbors of the bound agent and
// reads their current opinion bits — the operational PULL definition
// restricted to the observation graph. The binomial shortcut of
// fastObserver is a uniform-mixing identity and does not apply here, so
// every agent engine shares this path on sparse topologies; the agent's
// own RNG stream drives the draws, which is what keeps the sharded
// parallel sweep bit-identical to the sequential one.
//
// The hot path is the PR 5 playbook applied to graphs. At bind, the
// agent's whole out-row packs into one uint64 of opinion bits (a CSR
// gather over the opinion bitset, frozen at graph Build/Rebuild time —
// see topo.View.RowBits), and for FixedDraws protocols the agent's
// whole round of stream outputs is bulk-loaded in one rng.Prefetch
// fill. Every draw then mirrors the per-draw path exactly — the
// Prefetch replays Intn's Lemire rejection walk and Bernoulli's
// consumption rule over the buffered values — so the consumed stream is
// bit-identical to the unbatched loop while each observation costs a
// shift and a mask instead of a scattered bitset read. Power-of-two
// degrees reject nothing, which unlocks a branch-free block loop and,
// for homogeneous rows, an O(1) whole-count answer. Under the fused
// contract the gather and the counting move out of bind into a
// per-round pre-pass over the shard (countRound), which counts mixed
// rows eight agent streams at a time.
//
// Out-degrees beyond 64 (no packed row) keep the literal per-draw path.
type graphObserver struct {
	ops      *opinionBits
	view     *topo.View
	src      *rng.Source
	noiseEps float64

	// deg is the graph's uniform out-degree; fullRow its packed all-ones
	// row; shift is 64−log₂(deg) when deg is a power of two (0 sentinel
	// otherwise): Lemire's Intn on a power-of-two bound is exactly
	// x >> shift with no rejection.
	deg     int
	fullRow uint64
	shift   uint
	// baseDraws is the protocol's guaranteed per-round observation count
	// (FixedDraws calls × the single declared sample size; 0 disables
	// prefetching), draws the per-replicate effective prefetch after the
	// noise-consumption doubling.
	baseDraws int
	draws     int
	// fused selects the zero-buffer counting path: a power-of-two degree
	// with no noise consumes exactly one output per observation, so whole
	// CountOnes blocks run inside the generator kernels (the round
	// pre-pass's rng.CountPackedLanes, or rng.CountPacked per call) with
	// no prefetch at all.
	fused bool
	// ladder is the shared whole-round stream-jump ladder (base =
	// DrawsPerRound·m steps) and deficit the per-agent count of deferred
	// rounds: a homogeneous row under the fused contract answers every
	// CountOnes of the round from the row alone, so instead of advancing
	// the agent's stream the round pre-pass increments the agent's debt,
	// settled in O(log debt) ladder applications the next time the
	// stream is actually read — or dropped at replicate end if it never
	// is. Both are nil unless counts is set (see graphPrepassShape).
	ladder  *rng.JumpLadder
	deficit []uint32
	// calls and callSize hold the FixedDraws round shape (DrawsPerRound
	// CountOnes calls of the single declared size) when the executor
	// allocated the counts slab. Under the fused contract the round
	// pre-pass (countRound) computes every agent's whole round of counts
	// into counts (calls entries per agent); bind points cnts at the
	// agent's entry and the calls read it off in order.
	calls    int
	callSize int
	counts   []int32
	cpos     int
	cnts     []int32
	// qsrc, qrow and qcnt are the pre-pass's lane queue: the streams,
	// rows and slab entries of the mixed-row agents awaiting the next
	// rng.CountPackedLanes call.
	qsrc [rng.MaxLanes]*rng.Source
	qrow [rng.MaxLanes]uint64
	qcnt [rng.MaxLanes][]int32
	// packed reports that the bound agent's row is gathered into rowBits
	// for this bind.
	packed  bool
	rowBits uint64
	pre     rng.Prefetch
}

// newGraphObserver builds one per-shard graph observer over the
// executor-owned per-agent slabs deficit and counts (nil when the fused
// jump or the round pre-pass cannot apply; counts is non-nil exactly when
// graphPrepassShape admits the pair). The prefetch size derives from the
// FixedDraws contract: every Step makes exactly DrawsPerRound CountOnes
// calls of declared sizes and no Sample calls, so with a single distinct
// declared size m the round consumes at least DrawsPerRound·m outputs
// (each observation is ≥ 1 Intn output, plus exactly one Bernoulli
// output when noise is in (0,1)) — the safe bulk load.
func newGraphObserver(ops *opinionBits, g *topo.Graph, c *Config, ladder *rng.JumpLadder, deficit []uint32, counts []int32) *graphObserver {
	o := &graphObserver{ops: ops, view: g.NewView(), deg: g.Degree(), ladder: ladder, deficit: deficit, counts: counts}
	o.fullRow = ^uint64(0)
	if o.deg < 64 {
		o.fullRow = 1<<uint(o.deg) - 1
	}
	if o.deg&(o.deg-1) == 0 {
		o.shift = uint(64 - bits.TrailingZeros(uint(o.deg)))
	}
	if d, m := graphRoundShape(g, c); d > 0 {
		o.baseDraws = min(d*m, maxGraphPrefetch/2)
		if counts != nil {
			o.calls, o.callSize = d, m
		}
	}
	o.pre.Init(2 * o.baseDraws)
	o.setNoise(c.NoiseEps)
	return o
}

// graphPrepassShape returns the round shape (d CountOnes calls of size
// m) the round pre-pass serves on g: the FixedDraws shape when the
// degree is a power of two (so the fused contract can hold) and d fits
// maxFixedDraws; (0, 0) otherwise. The executor sizes the counts slab
// (n·d entries) and the homogeneous-row jump ladder from it, so the
// ladder and the debt deferral exist only where the pre-pass runs.
func graphPrepassShape(g *topo.Graph, c *Config) (d, m int) {
	deg := g.Degree()
	if d, m = graphRoundShape(g, c); d > maxFixedDraws || deg&(deg-1) != 0 {
		return 0, 0
	}
	return d, m
}

// maxRoundJumpSteps bounds the whole-round jump's precompute (building
// a StepJump runs 256·steps serial state advances); rounds consuming
// more outputs than this count homogeneous rows in the pre-pass
// instead of deferring them.
const maxRoundJumpSteps = 1 << 16

// jumpLadderDepth caps the number of powers-of-two rungs built over the
// whole-round jump: deferred-round debts up to 2^16−1 settle in
// popcount applications, and longer ones (an agent homogeneous for a
// whole epoch) fall back to repeated top-rung applications. Shorter
// round caps build fewer rungs (see Pool.jumpLadder).
const jumpLadderDepth = 16

// flushDebt settles the agent's deferred stream advance before the
// source is next read, keeping the stream byte-identical to the
// never-deferred schedule.
func (o *graphObserver) flushDebt(agent int, src *rng.Source) {
	if d := o.deficit[agent]; d != 0 {
		o.ladder.Flush(src, uint64(d))
		o.deficit[agent] = 0
	}
}

// graphRoundShape returns the FixedDraws round shape on a packed-row
// graph: d CountOnes calls per Step, each of the single declared sample
// size m. (0, 0) when the rows do not pack or the protocol declares no
// such shape.
func graphRoundShape(g *topo.Graph, c *Config) (d, m int) {
	if !g.PackedRows() {
		return 0, 0
	}
	fd, ok := c.Protocol.(FixedDraws)
	if !ok {
		return 0, 0
	}
	m, single := singleSampleSize(c.Protocol.SampleSizes())
	if d = fd.DrawsPerRound(); !single || m < 1 || d < 1 {
		return 0, 0
	}
	return d, m
}

// singleSampleSize reports the protocol's sole distinct declared sample
// size, when there is exactly one.
func singleSampleSize(sizes []int) (int, bool) {
	if len(sizes) == 0 {
		return 0, false
	}
	m := sizes[0]
	for _, s := range sizes[1:] {
		if s != m {
			return 0, false
		}
	}
	return m, true
}

// setNoise installs the replicate's noise level and the prefetch size it
// implies: noise in (0, 1) consumes exactly one extra output per
// observation (Bernoulli draws nothing outside that interval).
func (o *graphObserver) setNoise(eps float64) {
	o.noiseEps = eps
	o.fused = o.shift != 0 && eps <= 0
	o.draws = o.baseDraws
	switch {
	case o.fused:
		// The fused kernel draws straight from the source; buffering would
		// only add a memory round-trip.
		o.draws = 0
	case eps > 0 && eps < 1:
		o.draws *= 2
	}
}

// precounts reports that the round pre-pass (countRound) serves this
// replicate's counts: the fused contract holds and the round shape fits
// the executor's counts slab.
func (o *graphObserver) precounts() bool { return o.fused && o.counts != nil }

// countRound is the fused path's per-round pre-pass over the shard's
// agents [lo, hi). It gathers each agent's row, defers a homogeneous
// row's whole round into the agent's debt (its counts, 0 or m per call,
// are known from the row), and for a mixed row settles the debt and
// queues the agent; the queue counts eight streams at a time through
// rng.CountPackedLanes into the agent's slab entry. Every stream is
// consumed exactly as by the per-agent bind-time counting it replaces —
// debt flush, then calls·callSize outputs — and only rows of the
// current opinions are read, which the double buffer keeps fixed for
// the round. Shards own disjoint ranges of srcs, deficit and counts.
//
//fet:hotpath
func (o *graphObserver) countRound(lo, hi int, srcs []rng.Source) {
	words := o.ops.words
	q := 0
	for i := lo; i < hi; i++ {
		o.view.Bind(i)
		row, _ := o.view.RowBits(words)
		cnt := o.counts[i*o.calls : (i+1)*o.calls]
		if o.ladder != nil {
			if row == 0 || row == o.fullRow {
				o.deficit[i]++
				c := int32(0)
				if row != 0 {
					c = int32(o.callSize)
				}
				for b := range cnt {
					cnt[b] = c
				}
				continue
			}
			o.flushDebt(i, &srcs[i])
		}
		o.qsrc[q], o.qrow[q], o.qcnt[q] = &srcs[i], row, cnt
		if q++; q == rng.MaxLanes {
			//fet:allow rngmirror: consumes exactly calls·callSize outputs per queued stream — each agent's whole FixedDraws round, counted before its Step
			rng.CountPackedLanes(o.qsrc[:], o.qrow[:], o.shift, o.callSize, o.qcnt[:])
			q = 0
		}
	}
	if q > 0 {
		//fet:allow rngmirror: consumes exactly calls·callSize outputs per queued stream — each agent's whole FixedDraws round, counted before its Step
		rng.CountPackedLanes(o.qsrc[:q], o.qrow[:q], o.shift, o.callSize, o.qcnt[:q])
	}
}

//fet:hotpath
func (o *graphObserver) bind(agent int, src *rng.Source) {
	o.src = src
	if o.precounts() {
		// countRound already consumed (or deferred) the agent's whole
		// round: the calls just read its counts off the slab.
		o.packed = true
		o.cnts, o.cpos = o.counts[agent*o.calls:(agent+1)*o.calls], 0
		return
	}
	o.view.Bind(agent)
	o.rowBits, o.packed = o.view.RowBits(o.ops.words)
	if o.packed && !o.fused {
		o.pre.Bind(src, o.draws)
	}
}

func (o *graphObserver) newRound(round int, _ float64, _ []roundTable) {
	o.view.NewRound(round)
}

//fet:hotpath
func (o *graphObserver) CountOnes(m int) int {
	if !o.packed {
		count := 0
		for i := 0; i < m; i++ {
			count += int(o.sampleLiteral())
		}
		return count
	}
	if o.fused {
		// Power-of-two degree, no noise: every draw is exactly one output
		// (x >> shift, no Lemire rejection, no Bernoulli), so counts are
		// either pre-computed by the round pre-pass, known from a
		// homogeneous row (its outputs burned here), or run inside the
		// generator kernel.
		if o.counts != nil {
			c := o.cnts[o.cpos]
			o.cpos++
			return int(c)
		}
		switch o.rowBits {
		case 0:
			//fet:allow rngmirror: burns exactly the m draws the per-draw path would spend on an all-zero row
			o.src.Advance(m)
			return 0
		case o.fullRow:
			//fet:allow rngmirror: burns exactly the m draws the per-draw path would spend on an all-one row
			o.src.Advance(m)
			return m
		}
		//fet:allow rngmirror: exactly m one-output Lemire draws (power-of-two degree never rejects)
		return o.src.CountPacked(o.rowBits, o.shift, m)
	}
	count := 0
	for i := 0; i < m; i++ {
		b := o.rowBits >> uint(o.pre.Intn(o.deg)) & 1
		if o.noiseFlip() {
			b ^= 1
		}
		count += int(b)
	}
	return count
}

//fet:hotpath
func (o *graphObserver) Sample() byte {
	if !o.packed {
		return o.sampleLiteral()
	}
	b := byte(o.rowBits >> uint(o.pre.Intn(o.deg)) & 1)
	if o.noiseFlip() {
		b ^= 1
	}
	return b
}

// noiseFlip mirrors src.Bernoulli(noiseEps) through the prefetch,
// including its zero-consumption edges.
func (o *graphObserver) noiseFlip() bool {
	if o.noiseEps <= 0 {
		return false
	}
	if o.noiseEps >= 1 {
		return true
	}
	return o.pre.Float64() < o.noiseEps
}

// sampleLiteral is the unpacked fallback (out-degree > 64): sample a
// neighbor index through the view and read its opinion bit.
func (o *graphObserver) sampleLiteral() byte {
	b := o.ops.get(o.view.Next(o.src))
	if o.noiseEps > 0 && o.src.Bernoulli(o.noiseEps) {
		return 1 - b
	}
	return b
}

// newRoundTables validates the protocol's declared sample sizes and
// allocates their reusable inverse-CDF tables, tabulated lazily by the
// round loop's in-place Reset calls.
func newRoundTables(sizes []int) []roundTable {
	tables := make([]roundTable, 0, len(sizes))
	for _, m := range sizes {
		if m < 0 {
			panic(fmt.Sprintf("sim: protocol declared negative sample size %d", m))
		}
		tables = append(tables, roundTable{m: m, tab: &rng.BinomialCDF{}})
	}
	return tables
}

// buildRoundTables tabulates the binomial laws for the protocol's
// declared sample sizes at the current opinion fraction.
func buildRoundTables(sizes []int, x float64) []roundTable {
	tables := newRoundTables(sizes)
	for i := range tables {
		tables[i].tab.Reset(tables[i].m, x)
	}
	return tables
}
