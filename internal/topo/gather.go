package topo

import "math/bits"

// Frozen-graph gather support: for graphs with out-degree ≤ 64, the
// whole out-neighbor row of an agent packs into one uint64 of opinion
// bits (bit j = opinion of row[j]). The plan below is the CSR form of
// that gather, precomputed over the opinion bitset's word layout at
// Build/Rebuild time so a round's observation sampling never walks the
// adjacency: it loads each touched bitset word once, masks it, and
// scatters the surviving bits into row positions. See DESIGN.md §7.

// maxGatherDegree bounds the packed-row representation: a gathered row
// is one uint64, so out-degrees beyond 64 keep the literal per-draw
// sampling path.
const maxGatherDegree = 64

// gatherSeg is one opinion-bitset word touched by an agent's row: the
// word index, the mask of neighbor bits within it, and the packed-row
// positions those neighbors occupy. Homogeneous words (all-zero or
// all-one under the mask) resolve in one masked load; posMask is what
// makes the all-one shortcut positionless.
type gatherSeg struct {
	word    int32
	mask    uint64
	posMask uint64
}

// gatherEnt maps one neighbor bit to its packed-row position for
// segments holding several neighbors: off is the bit offset within the
// segment's word, pos the neighbor's index in the adjacency row.
// Single-neighbor segments carry no entries — their off and pos are the
// sole set bits of mask and posMask.
type gatherEnt struct {
	off, pos uint8
}

// gatherPlan is a graph's frozen CSR gather plan: per agent, the
// segments (distinct bitset words) its row touches and the extraction
// entries of the multi-neighbor segments. segPtr and entPtr are the
// agent → range offsets of the two arrays.
type gatherPlan struct {
	segPtr []int32
	entPtr []int32
	segs   []gatherSeg
	ents   []gatherEnt
}

// refreshPlan (re)builds the graph's gather plan from its current
// adjacency. A counting pass groups every row into its bitset words and
// totals the segments and entries; that decides whether the plan pays
// at all, and sizes its arrays exactly before a second pass fills them.
// A fresh live plan therefore allocates each array once, at its final
// length, a Rebuild reuses the arrays whenever they are large enough (a
// same-seed Rebuild allocates nothing), and a dormant plan is never
// materialized. Graphs with out-degree beyond maxGatherDegree carry no
// plan.
func (g *Graph) refreshPlan() {
	g.planLive = false
	if g.deg > maxGatherDegree || g.deg < 1 {
		g.plan = nil
		return
	}

	var rg rowGroups
	nseg, nent := 0, 0
	for a := 0; a < g.n; a++ {
		nw := rg.group(g.adj[a*g.deg : (a+1)*g.deg])
		nseg += nw
		for _, m := range rg.masks[:nw] {
			if c := bits.OnesCount64(m); c > 1 {
				nent += c
			}
		}
	}
	// The plan only pays for itself when neighbor bits share bitset words
	// (ring, torus, small-world clusters): merged segments turn several
	// scattered reads into one masked load. Scattered graphs (random
	// k-out and its rewired variant) merge almost nothing — nearly every
	// segment is a singleton, and walking 24-byte segment records costs
	// more in instructions and cache traffic than gathering straight from
	// the 4-byte adjacency row — so the plan stays dormant, and unbuilt,
	// unless merging removed at least a quarter of the loads.
	if 4*nseg > 3*g.n*g.deg {
		return
	}

	p := g.plan
	if p == nil {
		p = &gatherPlan{}
		g.plan = p
	}
	p.segPtr = resize(p.segPtr, g.n+1)
	p.entPtr = resize(p.entPtr, g.n+1)
	p.segs = resize(p.segs, nseg)
	p.ents = resize(p.ents, nent)
	si, ei := 0, 0
	for a := 0; a < g.n; a++ {
		p.segPtr[a] = int32(si)
		p.entPtr[a] = int32(ei)
		row := g.adj[a*g.deg : (a+1)*g.deg]
		nw := rg.group(row)
		for k := 0; k < nw; k++ {
			p.segs[si] = gatherSeg{word: rg.words[k], mask: rg.masks[k], posMask: rg.posMasks[k]}
			si++
			if bits.OnesCount64(rg.masks[k]) == 1 {
				continue // the segment is its own entry
			}
			// Multi-neighbor word: emit one entry per row position, in
			// row order.
			for j, v := range row {
				if v>>6 == rg.words[k] {
					p.ents[ei] = gatherEnt{off: uint8(uint(v) & 63), pos: uint8(j)}
					ei++
				}
			}
		}
	}
	p.segPtr[g.n] = int32(si)
	p.entPtr[g.n] = int32(ei)
	g.planLive = true
}

// rowGroups is the per-row grouping scratch of refreshPlan: a row's
// distinct bitset words in first-touch order, with the neighbor-bit and
// row-position masks of each. deg ≤ 64 bounds everything, so it lives
// on the stack.
type rowGroups struct {
	words           [maxGatherDegree]int32
	masks, posMasks [maxGatherDegree]uint64
}

// group fills the scratch from row and returns its distinct word count.
func (rg *rowGroups) group(row []int32) int {
	nw := 0
group:
	for j, v := range row {
		w := v >> 6
		off := uint(v) & 63
		for k := 0; k < nw; k++ {
			if rg.words[k] == w {
				rg.masks[k] |= 1 << off
				rg.posMasks[k] |= 1 << uint(j)
				continue group
			}
		}
		rg.words[nw] = w
		rg.masks[nw] = 1 << off
		rg.posMasks[nw] = 1 << uint(j)
		nw++
	}
	return nw
}

// resize returns s with length n, reusing its backing array when it is
// large enough and allocating exactly n elements otherwise.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// gather packs agent's out-row opinions into a uint64 (bit j = opinion
// of row[j]) from the population bitset words.
func (p *gatherPlan) gather(agent int, words []uint64) uint64 {
	var row uint64
	ei := int(p.entPtr[agent])
	for si, end := int(p.segPtr[agent]), int(p.segPtr[agent+1]); si < end; si++ {
		s := &p.segs[si]
		m := s.mask
		if m&(m-1) == 0 {
			// Singleton segment: a branch-free bit move. Scattered graphs
			// (random k-out) are almost all singletons, and the homogeneous
			// word tests below would mispredict half the time at mixed
			// occupancy — data-dependent branches cost more than the two
			// trailing-zero counts here.
			row |= (words[s.word] >> uint(bits.TrailingZeros64(m)) & 1) << uint(bits.TrailingZeros64(s.posMask))
			continue
		}
		w := words[s.word] & m
		cnt := bits.OnesCount64(m)
		switch w {
		case 0:
			// No neighbor in this word holds 1: contributes nothing.
		case m:
			row |= s.posMask
		default:
			for _, e := range p.ents[ei : ei+cnt] {
				row |= (w >> e.off & 1) << e.pos
			}
		}
		ei += cnt
	}
	return row
}

// PackedRows reports whether the graph's rows pack into single uint64s
// of opinion bits (out-degree in [1, 64]), i.e. whether View.RowBits
// succeeds — with or without a live frozen plan.
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
// keep the literal per-draw path. Static rows go through the frozen
// plan; dynamically resampled rows gather generically from the scratch
// row.
func (v *View) RowBits(words []uint64) (uint64, bool) {
	if v.g.deg > maxGatherDegree {
		return 0, false
	}
	if v.onBase && v.g.planLive {
		return v.g.plan.gather(v.agent, words), true
	}
	// Reverse sweep accumulates with a constant left shift (row<<1|b)
	// instead of a variable one, so each neighbor costs a single
	// CL-tied shift; bit j still holds neighbor j's opinion.
	var row uint64
	for j := len(v.row) - 1; j >= 0; j-- {
		a := v.row[j]
		row = row<<1 | (words[a>>6] >> (uint(a) & 63) & 1)
	}
	return row, true
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
