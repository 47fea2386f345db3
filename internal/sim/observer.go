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
// own RNG stream drives the draws, which is what keeps a sharded sweep
// bit-identical to the sequential one.
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
// with no noise, whole counts inside the generator kernel. Trend rules
// on power-of-two graphs do not come here: the trend executor runs their
// whole graph round itself (trend.go); this observer serves the other
// protocols, noisy rounds, the exact engine and StateInit runs.
//
// Out-degrees beyond 64 (no packed row) keep the literal per-draw path.
type graphObserver struct {
	ops      *opinionBits
	view     *topo.View
	src      *rng.Source
	noiseEps float64

	// deg is the graph's uniform out-degree; shift is 64−log₂(deg) when
	// deg is a power of two (0 sentinel otherwise; see rowShape).
	deg   int
	shift uint
	// baseDraws is the protocol's guaranteed per-round observation count
	// (FixedDraws calls × the single declared sample size; 0 disables
	// prefetching), draws the per-replicate effective prefetch after the
	// noise-consumption doubling.
	baseDraws int
	draws     int
	// fused selects the zero-buffer counting path: a power-of-two degree
	// with no noise consumes exactly one output per observation, so whole
	// CountOnes blocks run inside the generator kernel (rng.CountPacked)
	// with no prefetch at all.
	fused bool
	// packed reports that the bound agent's row is gathered into rowBits
	// for this bind.
	packed  bool
	rowBits uint64
	pre     rng.Prefetch
}

// newGraphObserver builds one per-shard graph observer. The prefetch
// size derives from the FixedDraws contract: every Step makes exactly
// DrawsPerRound CountOnes calls of declared sizes and no Sample calls,
// so with a single distinct declared size m the round consumes at least
// DrawsPerRound·m outputs (each observation is ≥ 1 Intn output, plus
// exactly one Bernoulli output when noise is in (0,1)) — the safe bulk
// load.
func newGraphObserver(ops *opinionBits, g *topo.Graph, c *Config) *graphObserver {
	o := &graphObserver{ops: ops, view: g.NewView(), deg: g.Degree()}
	_, o.shift = rowShape(o.deg)
	if d, m := graphRoundShape(g, c); d > 0 {
		o.baseDraws = min(d*m, maxGraphPrefetch/2)
	}
	o.pre.Init(2 * o.baseDraws)
	o.setNoise(c.NoiseEps)
	return o
}

// rowShape returns a degree-deg packed row's all-ones value and its
// draw shift: 64−log₂(deg) when deg is a power of two, the sentinel 0
// otherwise (Lemire's Intn on a power-of-two bound is exactly x >> shift
// with no rejection).
func rowShape(deg int) (full uint64, shift uint) {
	full = ^uint64(0)
	if deg < 64 {
		full = 1<<uint(deg) - 1
	}
	if deg >= 1 && deg&(deg-1) == 0 {
		shift = uint(64 - bits.TrailingZeros(uint(deg)))
	}
	return full, shift
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

//fet:hotpath
func (o *graphObserver) bind(agent int, src *rng.Source) {
	o.src = src
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
		// (x >> shift, no Lemire rejection, no Bernoulli), so the count
		// runs inside the generator kernel.
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
