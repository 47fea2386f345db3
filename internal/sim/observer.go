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

// fastObserver implements Observation by drawing counts directly from
// Binomial(m, x_t): under passive communication, observing m uniform
// agents with replacement reveals exactly a Binomial(m, x_t) count of
// 1-opinions, so this is distributionally identical to exactObserver.
type fastObserver struct {
	x      float64 // current fraction of 1-opinions
	tables []roundTable
	src    *rng.Source
}

// roundTable caches one Binomial(m, x_t) inverse-CDF table for the round.
// The executor owns the tables and retabulates them in place per round.
type roundTable struct {
	m   int
	tab *rng.BinomialCDF
}

func (o *fastObserver) bind(_ int, src *rng.Source) { o.src = src }

func (o *fastObserver) newRound(_ int, x float64, tables []roundTable) {
	o.x = x
	o.tables = tables
}

//fet:hotpath
func (o *fastObserver) CountOnes(m int) int {
	for i := range o.tables {
		if t := &o.tables[i]; t.m == m {
			return t.tab.Sample(o.src)
		}
	}
	// Sample size not pre-declared by the protocol: fall back to a direct
	// draw, which is exact but slower.
	return o.src.Binomial(m, o.x)
}

//fet:hotpath
func (o *fastObserver) Sample() byte {
	if o.src.Bernoulli(o.x) {
		return OpinionOne
	}
	return OpinionZero
}

// graphObserver implements Observation on a non-complete topology: it
// draws uniform (with replacement) out-neighbors of the bound agent and
// reads their current opinion bits — the operational PULL definition
// restricted to the observation graph. The binomial shortcut of
// fastObserver is a uniform-mixing identity and does not apply here, so
// every agent engine shares this path on sparse topologies; the agent's
// own RNG stream drives the draws, which is what keeps a sharded sweep
// bit-identical to the sequential one.
//
// At bind, the agent's whole out-row packs into one uint64 of opinion
// bits (topo.View.RowBits, a sweep of the row over the opinion bitset),
// so each observation is one src.Intn(deg) draw, a shift and a mask
// instead of a scattered bitset read. A power-of-two degree rejects
// nothing, so with no noise whole counts run inside the generator
// kernel. Trend rules on
// power-of-two graphs do not come here: the trend executor runs their
// whole graph round itself (trend.go); this observer serves the other
// protocols, noisy rounds and the exact engine.
//
// Out-degrees beyond 64 (no packed row) keep the literal per-draw path.
type graphObserver struct {
	ops      *opinionBits
	view     *topo.View
	src      *rng.Source
	noiseEps float64

	// deg is the graph's uniform out-degree; shift is 64−log₂(deg) when
	// deg is a power of two (0 sentinel otherwise; see rowShift).
	deg   int
	shift uint
	// fused selects the generator-kernel counting path: packed rows of a
	// power-of-two degree with no noise consume exactly one output per
	// observation, so whole CountOnes blocks run inside rng.CountPacked.
	// It is fixed at construction: the pool key separates noisy graph
	// configs (poolKey.noisyGraph), so a replicate never changes it.
	fused bool
	// packed reports that the bound agent's row is gathered into rowBits
	// for this bind.
	packed  bool
	rowBits uint64
}

// newGraphObserver builds one per-shard graph observer.
func newGraphObserver(ops *opinionBits, g *topo.Graph, c *Config) *graphObserver {
	o := &graphObserver{ops: ops, view: g.NewView(), deg: g.Degree(), noiseEps: c.NoiseEps}
	o.shift = rowShift(o.deg)
	o.fused = o.shift != 0 && g.PackedRows() && c.NoiseEps <= 0
	return o
}

// rowShift returns a degree-deg packed row's draw shift: 64−log₂(deg)
// when deg is a power of two, the sentinel 0 otherwise (Lemire's Intn on
// a power-of-two bound is exactly x >> shift with no rejection).
func rowShift(deg int) uint {
	if deg >= 1 && deg&(deg-1) == 0 {
		return uint(64 - bits.TrailingZeros(uint(deg)))
	}
	return 0
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

//fet:hotpath
func (o *graphObserver) bind(agent int, src *rng.Source) {
	o.src = src
	o.view.Bind(agent)
	o.rowBits, o.packed = o.view.RowBits(o.ops.words)
}

func (o *graphObserver) newRound(round int, _ float64, _ []roundTable) {
	o.view.NewRound(round)
}

//fet:hotpath
func (o *graphObserver) CountOnes(m int) int {
	if o.fused {
		// Power-of-two degree, no noise: every draw is exactly one output
		// (x >> shift, no Lemire rejection, no Bernoulli), so the count
		// runs inside the generator kernel.
		//fet:allow rngmirror: exactly m one-output Lemire draws (power-of-two degree never rejects)
		return o.src.CountPacked(o.rowBits, o.shift, m)
	}
	count := 0
	for i := 0; i < m; i++ {
		count += int(o.Sample())
	}
	return count
}

// Sample reads one uniform out-neighbor's opinion — from the packed row
// or, for out-degrees beyond 64, through View.Next — and flips it on a
// Bernoulli(noiseEps) draw, which consumes nothing when noiseEps is 0.
//
//fet:hotpath
func (o *graphObserver) Sample() byte {
	var b byte
	if o.packed {
		b = byte(o.rowBits >> uint(o.src.Intn(o.deg)) & 1)
	} else {
		b = o.ops.get(o.view.Next(o.src))
	}
	if o.src.Bernoulli(o.noiseEps) {
		b ^= 1
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
