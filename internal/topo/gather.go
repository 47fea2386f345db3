package topo

import "passivespread/internal/rng"

// Packed rows: for graphs with out-degree ≤ 64, the whole out-neighbor
// row of an agent packs into one uint64 of opinion bits (bit j = opinion
// of row[j]), read straight from the adjacency and the opinion bitset.
// View.RowBits packs the bound agent's row with a literal reverse sweep;
// View.PackRows packs a run of agents at once, through an AVX2 gather
// kernel where the CPU has one. See DESIGN.md §7.

// maxGatherDegree bounds the packed-row representation: a gathered row
// is one uint64, so out-degrees beyond 64 keep the literal per-draw
// sampling path.
const maxGatherDegree = 64

// PackedRows reports whether the graph's rows pack into single uint64s
// of opinion bits (out-degree in [1, 64]), i.e. whether View.RowBits
// succeeds and View.PackRows may be called.
func (g *Graph) PackedRows() bool { return g.deg >= 1 && g.deg <= maxGatherDegree }

// PackedDegree reports, without building the graph, the uniform
// out-degree of a graph topology whose rows pack into single uint64s —
// the degree its Graph reports and whether PackedRows will hold. It is
// (0, false) for Complete and for every topology with unpacked rows.
func PackedDegree(t Topology) (int, bool) {
	rt, ok := t.(rowTopology)
	if !ok {
		return 0, false
	}
	d := rt.degree()
	return d, d >= 1 && d <= maxGatherDegree
}

// RowBits packs the bound agent's current out-row opinions into a
// uint64 read from the population bitset words (bit j = opinion of
// row[j]). ok is false when the out-degree exceeds 64 — callers then
// keep the literal per-draw path.
func (v *View) RowBits(words []uint64) (uint64, bool) {
	if v.g.deg > maxGatherDegree {
		return 0, false
	}
	return sweepRow(v.row, words), true
}

// PackRows packs the current-round out-rows of agents [lo, lo+len(rows))
// into rows, rows[k] holding agent lo+k's row exactly as Bind(lo+k) and
// RowBits would. words is the population bitset, one bit per agent; it
// panics when the graph's rows do not pack (PackedRows) or words is too
// short to hold every agent.
//
// Static rows are read straight from the adjacency. On AVX2 hosts (the
// rng.VectorKernels check) rows of a degree that is a multiple of 4 run
// through packRowGroups: per 4 neighbors one VPGATHERDQ of their bitset
// words, one VPSLLVQ moving each neighbor's bit to the sign and one
// VMOVMSKPD yielding 4 row bits. Other degrees, other hosts and
// dynamically rewired graphs take the literal reverse sweep, the
// reference the kernel is tested against.
func (v *View) PackRows(lo int, words, rows []uint64) {
	g := v.g
	if !g.PackedRows() {
		panic("topo: PackRows on a graph whose rows do not pack")
	}
	if len(rows) == 0 {
		return
	}
	// Every neighbor index is below n: one check bounds the kernel's loads.
	_ = words[(g.n-1)>>6]
	deg := g.deg
	if g.dyn != nil {
		for k := range rows {
			v.Bind(lo + k)
			rows[k] = sweepRow(v.row, words)
		}
		return
	}
	adj := g.adj[lo*deg : (lo+len(rows))*deg]
	if rng.VectorKernels() && deg&3 == 0 {
		packRowGroups(&adj[0], &words[0], &rows[0], len(rows), deg)
		return
	}
	for k := range rows {
		rows[k] = sweepRow(adj[k*deg:(k+1)*deg], words)
	}
}

// sweepRow packs row's opinions from the bitset words. The reverse
// sweep accumulates with a constant left shift (r<<1|b) instead of a
// variable one, so each neighbor costs a single CL-tied shift; bit j
// still holds neighbor j's opinion.
func sweepRow(row []int32, words []uint64) uint64 {
	var r uint64
	for j := len(row) - 1; j >= 0; j-- {
		a := row[j]
		r = r<<1 | (words[a>>6] >> (uint(a) & 63) & 1)
	}
	return r
}

// AnnealedDegree reports the uniform out-degree of topologies whose
// neighbor structure is faithfully summarized by degree-annealed
// resampling — each round every agent's k observation targets look like
// a fresh uniform draw from the population. That holds for the random
// k-out digraph (no geometry, in-degrees concentrate) and its
// dynamically rewired variant (which resamples rows literally); it
// fails for ring, torus and small-world graphs, whose fixed local
// structure the annealed occupancy update cannot model. The sparse
// aggregate engine accepts exactly the topologies reported here.
func AnnealedDegree(t Topology) (int, bool) {
	switch tt := t.(type) {
	case randomRegular:
		return tt.k, true
	case dynamicRewire:
		return tt.k, true
	}
	return 0, false
}
