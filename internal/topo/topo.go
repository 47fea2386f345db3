// Package topo is the observation-topology layer of the simulator: it
// decides *who* each agent can observe in a round, separately from *how*
// the engines execute rounds.
//
// The paper analyzes FET under uniform mixing — every agent's ℓ-sample
// observation is drawn uniformly from the whole population — and that
// assumption is the Complete topology, the default everywhere. The other
// topologies restrict each agent's observations to a fixed (or per-round
// rewired) out-neighbor set, turning "does FET's self-stabilizing
// trend-following survive structure?" into a runnable experiment: sparse
// random digraphs, rings, tori, Watts–Strogatz small worlds, and
// dynamically rewired graphs.
//
// # Determinism contract
//
// Everything derives from the repository's single SplitMix64 stream rule
// (internal/rng): agent i's out-neighbor row is built from stream
// StreamSeed(topoSeed, i), so graph construction can be sharded across
// any number of goroutines and still produce byte-identical adjacency.
// DynamicRewire's per-round resampling derives from
// (topoSeed, round, agent) alone — never from scheduling — which is what
// keeps the parallel engine bit-identical to the sequential one on every
// topology at every worker count.
//
// Observation direction follows the PULL model: an edge i→j means agent
// i may observe agent j's opinion. All graph topologies here are
// out-regular (every agent has exactly Degree() observable neighbors);
// in-degrees vary by construction. Sampling within a round is uniform
// with replacement over the bound agent's row, the sparse analogue of
// the paper's uniform mixing.
package topo

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"passivespread/internal/rng"
)

// Topology describes an observation structure over a population. A nil
// Topology everywhere means Complete (uniform mixing, the paper's model).
type Topology interface {
	// Name returns the canonical, parseable identity of the topology
	// (Parse(Name()) reconstructs it): "complete", "ring:2", "torus",
	// "random-regular:8", "small-world:4:0.1", "dynamic:8:0.1".
	Name() string
	// Complete reports uniform mixing. Engines keep their tabulated
	// binomial fast paths exactly when this is true.
	Complete() bool
	// Validate reports whether the topology can be built over n agents.
	Validate(n int) error
	// Build constructs the observation graph for n agents, deterministically
	// from seed, sharding row construction across up to workers goroutines
	// (0 = sequential). Complete topologies return (nil, nil): no graph.
	Build(n int, seed uint64, workers int) (*Graph, error)
}

// IsComplete reports whether t is uniform mixing (nil counts as Complete).
func IsComplete(t Topology) bool { return t == nil || t.Complete() }

// MaxGraphN is the largest population a graph topology accepts: the
// adjacency stores agent indices as int32, so larger populations must
// fail Validate instead of silently wrapping. (Complete has no graph
// and is unbounded; agent engines are memory-bound long before this.)
const MaxGraphN = math.MaxInt32

// checkGraphN bounds a graph topology's population against the int32
// adjacency representation.
func checkGraphN(n int) error {
	if n > MaxGraphN {
		return fmt.Errorf("topo: population %d exceeds the graph limit %d (int32 adjacency); use the complete topology", n, MaxGraphN)
	}
	return nil
}

// DisplayName returns t's canonical name, mapping nil to "complete".
func DisplayName(t Topology) string {
	if t == nil {
		return "complete"
	}
	return t.Name()
}

// Default degree/parameter values used by Parse when a parameter is
// omitted (e.g. "ring" ≡ "ring:2").
const (
	DefaultRingK       = 2
	DefaultRegularK    = 8
	DefaultSmallWorldK = 4
	DefaultBeta        = 0.1
	DefaultRewireK     = 8
	DefaultRewireP     = 0.1
)

// complete is the uniform-mixing topology.
type complete struct{}

// Complete returns the uniform-mixing topology: every agent observes the
// whole population, exactly the paper's model. It is the default.
func Complete() Topology { return complete{} }

func (complete) Name() string                           { return "complete" }
func (complete) Complete() bool                         { return true }
func (complete) Validate(int) error                     { return nil }
func (complete) Build(int, uint64, int) (*Graph, error) { return nil, nil }

// ring is the k-nearest-neighbor cycle.
type ring struct{ k int }

// Ring returns the cycle topology where agent i observes its k nearest
// neighbors on each side (out-degree 2k). Construction is deterministic
// and draws no randomness.
func Ring(k int) Topology { return ring{k: k} }

func (r ring) Name() string   { return fmt.Sprintf("ring:%d", r.k) }
func (r ring) Complete() bool { return false }

func (r ring) Validate(n int) error {
	if err := checkGraphN(n); err != nil {
		return err
	}
	if r.k < 1 {
		return fmt.Errorf("topo: ring k = %d, want ≥ 1", r.k)
	}
	// Division form: 2k overflows for adversarially huge k.
	if r.k > (n-1)/2 {
		return fmt.Errorf("topo: ring k = %d needs 2k ≤ n−1, got n = %d", r.k, n)
	}
	return nil
}

func (r ring) Build(n int, seed uint64, workers int) (*Graph, error) {
	return build(r, n, seed, workers)
}

func (r ring) degree() int { return 2 * r.k }

func (r ring) fillRow(n, i int, _ *rng.Batch, row []int32) { fillRingRow(i, n, r.k, row) }

// fillRingRow writes agent i's ring neighbors: offsets ±1..±k.
func fillRingRow(i, n, k int, row []int32) {
	for d := 1; d <= k; d++ {
		row[2*(d-1)] = int32((i + d) % n)
		row[2*(d-1)+1] = int32((i - d + n) % n)
	}
}

// torus is the 2-D wraparound grid with the von Neumann neighborhood.
type torus struct{}

// Torus returns the √n × √n wraparound grid: agent i observes its four
// lattice neighbors (up, down, left, right). Requires n to be a perfect
// square with side ≥ 3. Construction draws no randomness.
func Torus() Topology { return torus{} }

func (torus) Name() string   { return "torus" }
func (torus) Complete() bool { return false }

func (torus) Validate(n int) error {
	if err := checkGraphN(n); err != nil {
		return err
	}
	s := isqrt(n)
	if s*s != n {
		return fmt.Errorf("topo: torus needs a perfect-square population, got n = %d", n)
	}
	if s < 3 {
		return fmt.Errorf("topo: torus side = %d, want ≥ 3 (distinct lattice neighbors)", s)
	}
	return nil
}

func (t torus) Build(n int, seed uint64, workers int) (*Graph, error) {
	return build(t, n, seed, workers)
}

func (torus) degree() int { return 4 }

func (torus) fillRow(n, i int, _ *rng.Batch, row []int32) {
	s := isqrt(n)
	r, c := i/s, i%s
	row[0] = int32(((r+1)%s)*s + c)   // down
	row[1] = int32(((r-1+s)%s)*s + c) // up
	row[2] = int32(r*s + (c+1)%s)     // right
	row[3] = int32(r*s + (c-1+s)%s)   // left
}

func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	s := int(math.Sqrt(float64(n)))
	for s*s > n {
		s--
	}
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// randomRegular is the random k-out digraph.
type randomRegular struct{ k int }

// RandomRegular returns the random k-out observation digraph: every
// agent observes a fixed set of k distinct uniformly random other agents
// (out-degree exactly k; in-degrees are Binomial). Agent i's row derives
// from stream StreamSeed(seed, i) alone, so construction parallelizes
// deterministically.
func RandomRegular(k int) Topology { return randomRegular{k: k} }

func (r randomRegular) Name() string   { return fmt.Sprintf("random-regular:%d", r.k) }
func (r randomRegular) Complete() bool { return false }

func (r randomRegular) Validate(n int) error {
	if err := checkGraphN(n); err != nil {
		return err
	}
	if r.k < 1 {
		return fmt.Errorf("topo: random-regular k = %d, want ≥ 1", r.k)
	}
	if r.k > n-1 {
		return fmt.Errorf("topo: random-regular k = %d needs k ≤ n−1, got n = %d", r.k, n)
	}
	return nil
}

func (r randomRegular) Build(n int, seed uint64, workers int) (*Graph, error) {
	return build(r, n, seed, workers)
}

func (r randomRegular) degree() int { return r.k }

func (randomRegular) fillRow(n, i int, src *rng.Batch, row []int32) { fillKOutRowN(i, n, src, row) }

// fillKOutRowN samples len(row) distinct non-self agent indices in [0, n)
// from src, by rejection of self and duplicates; rows are short
// (k = O(log n) in practice), so the duplicate scan is cheap. Draws come
// through a rng.Batch — one bulk Uint64 fill per chunk instead of a call
// per index — consuming exactly the values a per-draw loop would.
func fillKOutRowN(i, n int, src *rng.Batch, row []int32) {
	for j := range row {
	draw:
		for {
			v := int32(src.Intn(n))
			if int(v) == i {
				continue
			}
			for _, prev := range row[:j] {
				if prev == v {
					continue draw
				}
			}
			row[j] = v
			break
		}
	}
}

// fillKOutRowNSrc is fillKOutRowN drawing straight from a Source: the
// Batch consumes the identical value sequence (it is a prefetch of the
// same stream), so both produce the same row — the direct form serves
// hot per-bind resampling where a buffer round-trip costs more than it
// saves.
func fillKOutRowNSrc(i, n int, src *rng.Source, row []int32) {
	for j := range row {
	draw:
		for {
			v := int32(src.Intn(n))
			if int(v) == i {
				continue
			}
			for _, prev := range row[:j] {
				if prev == v {
					continue draw
				}
			}
			row[j] = v
			break
		}
	}
}

// smallWorld is the Watts–Strogatz construction.
type smallWorld struct {
	k    int
	beta float64
}

// SmallWorld returns the Watts–Strogatz small-world topology: the Ring(k)
// base (out-degree 2k), with every out-edge independently rewired to a
// uniformly random non-duplicate target with probability beta. beta = 0
// is exactly Ring(k); beta = 1 approaches a random 2k-out digraph. Agent
// i's row derives from stream StreamSeed(seed, i) alone.
func SmallWorld(k int, beta float64) Topology { return smallWorld{k: k, beta: beta} }

func (s smallWorld) Name() string {
	return fmt.Sprintf("small-world:%d:%s", s.k, strconv.FormatFloat(s.beta, 'g', -1, 64))
}
func (s smallWorld) Complete() bool { return false }

func (s smallWorld) Validate(n int) error {
	if err := checkGraphN(n); err != nil {
		return err
	}
	if s.k < 1 {
		return fmt.Errorf("topo: small-world k = %d, want ≥ 1", s.k)
	}
	// Division form: 2k overflows for adversarially huge k.
	if s.k > (n-1)/2 {
		return fmt.Errorf("topo: small-world k = %d needs 2k ≤ n−1, got n = %d", s.k, n)
	}
	if s.beta < 0 || s.beta > 1 || math.IsNaN(s.beta) {
		return fmt.Errorf("topo: small-world beta = %v, want in [0, 1]", s.beta)
	}
	return nil
}

func (s smallWorld) Build(n int, seed uint64, workers int) (*Graph, error) {
	return build(s, n, seed, workers)
}

func (s smallWorld) degree() int { return 2 * s.k }

func (s smallWorld) fillRow(n, i int, src *rng.Batch, row []int32) {
	fillRingRow(i, n, s.k, row)
	for j := range row {
		if !src.Bernoulli(s.beta) {
			continue
		}
	rewire:
		for {
			v := int32(src.Intn(n))
			if int(v) == i {
				continue
			}
			for jj, prev := range row {
				if jj != j && prev == v {
					continue rewire
				}
			}
			row[j] = v
			break
		}
	}
}

// dynamicRewire is the per-round resampled k-out digraph.
type dynamicRewire struct {
	k int
	p float64
}

// DynamicRewire returns the dynamic topology: a random k-out base graph
// (as RandomRegular(k)) where, independently every round, each agent's
// out-neighbor row is resampled with probability p. p = 1 redraws the
// whole graph every round. The round-t row of agent i derives from
// (seed, t, i) alone, so results stay bit-identical at any parallelism.
func DynamicRewire(k int, p float64) Topology { return dynamicRewire{k: k, p: p} }

func (d dynamicRewire) Name() string {
	return fmt.Sprintf("dynamic:%d:%s", d.k, strconv.FormatFloat(d.p, 'g', -1, 64))
}
func (d dynamicRewire) Complete() bool { return false }

func (d dynamicRewire) Validate(n int) error {
	if err := checkGraphN(n); err != nil {
		return err
	}
	if d.k < 1 {
		return fmt.Errorf("topo: dynamic k = %d, want ≥ 1", d.k)
	}
	if d.k > n-1 {
		return fmt.Errorf("topo: dynamic k = %d needs k ≤ n−1, got n = %d", d.k, n)
	}
	if d.p < 0 || d.p > 1 || math.IsNaN(d.p) {
		return fmt.Errorf("topo: dynamic p = %v, want in [0, 1]", d.p)
	}
	return nil
}

func (d dynamicRewire) Build(n int, seed uint64, workers int) (*Graph, error) {
	return build(d, n, seed, workers)
}

func (d dynamicRewire) degree() int { return d.k }

func (dynamicRewire) fillRow(n, i int, src *rng.Batch, row []int32) { fillKOutRowN(i, n, src, row) }

// Graph is a built observation graph: a flat out-adjacency array with
// uniform out-degree, plus the dynamic-rewire rule when the topology
// resamples rows per round. Graphs are immutable after Build; concurrent
// readers go through per-worker Views.
type Graph struct {
	n, deg int
	adj    []int32
	seed   uint64
	dyn    *dynamicRewire // nil for static topologies
	// rows is the single-worker row-construction scratch, used only by
	// Build and Rebuild.
	rows rowStream
}

// N returns the population size the graph was built for.
func (g *Graph) N() int { return g.n }

// Degree returns the uniform out-degree.
func (g *Graph) Degree() int { return g.deg }

// Base returns agent i's static (round-0 base) out-neighbor row. The
// returned slice aliases the graph; callers must not modify it.
func (g *Graph) Base(i int) []int32 { return g.adj[i*g.deg : (i+1)*g.deg] }

// Seed returns the seed the current rows were built from (updated by
// Rebuild).
func (g *Graph) Seed() uint64 { return g.seed }

// rowTopology is implemented by graph topologies built from per-row
// streams via the shared fillRows path: a uniform out-degree and a
// per-row fill. It is what lets graphs be rebuilt in place for a new
// seed (Rebuild) instead of reallocated per replicate. The dynamic
// rewire rule, when rows are resampled per round, is the topology value
// itself (dynamicRewire).
type rowTopology interface {
	Topology
	// degree returns the uniform out-degree.
	degree() int
	// fillRow writes agent i's row of an n-agent graph, drawing from the
	// row's own stream src.
	fillRow(n, i int, src *rng.Batch, row []int32)
}

// build validates and constructs a fresh graph from t's rows.
func build(t rowTopology, n int, seed uint64, workers int) (*Graph, error) {
	if err := t.Validate(n); err != nil {
		return nil, err
	}
	deg := t.degree()
	g := &Graph{n: n, deg: deg, adj: make([]int32, n*deg), seed: seed}
	if d, ok := t.(dynamicRewire); ok {
		g.dyn = &d
	}
	g.fillRows(t, workers)
	return g, nil
}

// Rebuild refills an existing graph's adjacency in place for a new seed,
// reusing the O(n·deg) backing array. t must be the topology g was
// built from (same shape: population, degree, rewire rule); Views over g
// stay valid and observe the new rows. This is the executor-pooling fast
// path: per replicate the topology seed changes but the shape never
// does. With one worker a Rebuild allocates nothing.
func Rebuild(g *Graph, t Topology, n int, seed uint64, workers int) error {
	rt, ok := t.(rowTopology)
	if !ok {
		return fmt.Errorf("topo: topology %q cannot be rebuilt in place", DisplayName(t))
	}
	if err := t.Validate(n); err != nil {
		return err
	}
	if g.n != n || g.deg != rt.degree() {
		return fmt.Errorf("topo: Rebuild shape mismatch: graph is %d×%d, topology %q wants %d×%d",
			g.n, g.deg, t.Name(), n, rt.degree())
	}
	d, dyn := t.(dynamicRewire)
	if (g.dyn != nil) != dyn || (dyn && *g.dyn != d) {
		return fmt.Errorf("topo: Rebuild rewire-rule mismatch for topology %q", t.Name())
	}
	g.seed = seed
	g.fillRows(rt, workers)
	return nil
}

// rowStream is one row-construction worker's generator: a Source
// reseeded per row and the rng.Batch that consumes it.
type rowStream struct {
	src   rng.Source
	batch rng.Batch
}

// fillRange writes rows [lo, hi) of g from t.
func (rs *rowStream) fillRange(g *Graph, t rowTopology, lo, hi int) {
	rs.batch.Init(&rs.src, g.deg+1)
	for i := lo; i < hi; i++ {
		rs.src.Reseed(rng.StreamSeed(g.seed, uint64(i)))
		rs.batch.Reset()
		t.fillRow(g.n, i, &rs.batch, g.adj[i*g.deg:(i+1)*g.deg])
	}
}

// fillRows writes every row of the flat adjacency, sharding rows across
// up to workers goroutines. Agent i's row derives from a Source seeded
// with StreamSeed(g.seed, i) — per-row streams are what make the sharded
// construction byte-identical to the sequential one — and each worker
// consumes its streams through a rng.Batch, generating outputs in bulk
// chunks instead of one call per draw. Leftover pre-generated values are
// discarded at the next row's reseed, which is unobservable: each row's
// stream is never read again. A single worker fills inline through the
// graph's own rowStream, so a sequential Rebuild spawns and allocates
// nothing.
func (g *Graph) fillRows(t rowTopology, workers int) {
	n := g.n
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		g.rows.fillRange(g, t, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var rs rowStream
			rs.fillRange(g, t, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// View is a per-worker read handle over a Graph: it owns the scratch row
// and scratch RNG that dynamic rewiring needs, so any number of Views
// can walk the same graph concurrently without shared mutable state.
type View struct {
	g       *Graph
	row     []int32
	scratch []int32
	src     rng.Source // rewire-decision stream, reseeded per (round, agent)
	round   int
	// roundSeed caches StreamSeed(g.seed, round+1) — the per-round root
	// all agents' rewire streams derive from — keyed by the (round, seed)
	// pair it was computed for, so Bind pays one derivation per agent
	// instead of two.
	roundSeed uint64
	rsRound   int
	rsSeed    uint64
	rsValid   bool
	// rewireThresh is rng.UnitThreshold(p) for the dynamic rewire
	// probability: the coin compares the raw first output in integers.
	rewireThresh uint64
}

// NewView returns a fresh read handle over the graph.
func (g *Graph) NewView() *View {
	v := &View{g: g, scratch: make([]int32, g.deg)}
	if g.dyn != nil {
		v.rewireThresh = rng.UnitThreshold(g.dyn.p)
	}
	return v
}

// NewRound installs the round number; dynamic topologies derive their
// per-agent rewire streams from it.
func (v *View) NewRound(round int) { v.round = round }

// Bind aims the view at one agent's current-round out-neighbor row. For
// static topologies this is the built row; for DynamicRewire the row is
// resampled into the view's scratch with probability p, from a stream
// derived from (graph seed, round, agent) alone.
func (v *View) Bind(agent int) {
	base := v.g.Base(agent)
	d := v.g.dyn
	if d == nil {
		v.row = base
		return
	}
	if !v.rsValid || v.rsRound != v.round || v.rsSeed != v.g.seed {
		v.rsRound, v.rsSeed, v.rsValid = v.round, v.g.seed, true
		v.roundSeed = rng.StreamSeed(v.g.seed, uint64(v.round)+1)
	}
	seed := rng.StreamSeed(v.roundSeed, uint64(agent))
	// The rewire coin is the first Float64 of the (round, agent) stream;
	// FirstRaw reads it without a full reseed and UnitThreshold turns the
	// float comparison into an integer one, so the common keep-the-row
	// outcome costs three SplitMix64 steps and a compare. (p outside
	// (0, 1) short-circuits exactly like Source.Bernoulli: p ≤ 0 keeps the
	// row for every coin, p ≥ 1 rewires for every coin.)
	if d.p < 1 && !(d.p > 0 && rng.FirstRaw(seed)>>11 < v.rewireThresh) {
		v.row = base
		return
	}
	// Rewired: construct the stream for real and replay the coin draw, so
	// the resampling below consumes exactly the values the single-stream
	// per-draw path would. The row draws come straight off the source —
	// Batch.Intn replays Source.Intn value-for-value, so for the handful
	// of draws a row needs, direct sampling yields the identical row
	// without the buffer round-trip.
	v.src.Reseed(seed)
	v.src.Bernoulli(d.p)
	fillKOutRowNSrc(agent, v.g.n, &v.src, v.scratch)
	v.row = v.scratch
}

// Next draws one uniform observation target from the bound agent's row,
// using the caller's RNG stream (the observing agent's own stream, which
// is what keeps sharded sweeps deterministic).
func (v *View) Next(src *rng.Source) int {
	return int(v.row[src.Intn(len(v.row))])
}

// Degree returns the out-degree of the bound row.
func (v *View) Degree() int { return v.g.deg }
