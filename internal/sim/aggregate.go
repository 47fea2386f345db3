package sim

import (
	"fmt"

	"passivespread/internal/dist"
	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// aggregateExecutor advances the population as per-(opinion, state)
// occupancy counts instead of per-agent objects. One round costs the
// protocol's StepOccupancy — O(ℓ²) binomial draws for the trend
// protocols — independent of the population size, so worst-case
// disseminations at n = 10⁸⁺ run in seconds while remaining agent-level
// exact in distribution (every agent's round update law is applied to
// every agent; only the per-agent identities are forgotten, which the
// opinion-fraction statistics never depended on).
type aggregateExecutor struct {
	cfg   Config
	proto AggregateProtocol
	// sparse and annealedK select the degree-annealed round update
	// (EngineAggregateSparse): annealedK is the topology's uniform
	// out-degree, 0 on the uniform-mixing path.
	sparse    SparseAggregateProtocol
	annealedK int
	occ       *Occupancy
	next      *Occupancy
	// sourceOnes is the number of sources displaying 1 (all sources agree,
	// so this is Sources or 0 depending on the current correct opinion).
	sourceOnes int
	ones       int // total 1-opinions, sources included
	src        *rng.Source
}

func newAggregateExecutor(c *Config) (*aggregateExecutor, error) {
	proto, ok := c.Protocol.(AggregateProtocol)
	if !ok {
		return nil, fmt.Errorf("sim: engine %v requires an aggregate-capable protocol, %q is not",
			c.Engine, c.Protocol.Name())
	}
	var sparse SparseAggregateProtocol
	annealedK := 0
	if c.Engine == EngineAggregateSparse {
		sparse, ok = c.Protocol.(SparseAggregateProtocol)
		if !ok {
			return nil, fmt.Errorf("sim: engine %v requires a sparse-aggregate-capable protocol, %q is not",
				c.Engine, c.Protocol.Name())
		}
		k, ok := topo.AnnealedDegree(c.Topology)
		if !ok {
			// withDefaults already rejects this; keep the executor safe on
			// direct construction.
			return nil, fmt.Errorf("sim: engine %v requires a degree-annealed topology, %q is not",
				c.Engine, c.Topology.Name())
		}
		annealedK = k
	}
	states := proto.AggregateStates()
	if states < 1 {
		return nil, fmt.Errorf("sim: protocol %q reports %d aggregate states", proto.Name(), states)
	}
	// The state law over {0, …, states−1}. X0 is 0 unless the law is
	// binomial, so a fresh start puts every agent at state 0 (the zero
	// value of the agent structs), which the split below draws nothing
	// for.
	law := dist.PMFVector(states-1, c.Memory.X0)
	switch c.Memory.Law {
	case MemoryUniform:
		for s := range law {
			law[s] = 1 / float64(states)
		}
	case MemoryBinomial:
		if m, _ := singleSampleSize(proto.SampleSizes()); states != m+1 {
			return nil, MemoryError(fmt.Sprintf("engine %v needs the m+1 = %d stored counts as states; protocol %q has %d",
				c.Engine, m+1, proto.Name(), states))
		}
	}

	e := &aggregateExecutor{
		cfg:       *c,
		proto:     proto,
		sparse:    sparse,
		annealedK: annealedK,
		occ:       NewOccupancy(states),
		next:      NewOccupancy(states),
		// Stream 0 matches the agent engines' initializer stream; all
		// aggregate draws share it (the engine is sequential by design —
		// its per-round work is O(ℓ²) regardless of n).
		src: rng.NewFrom(c.Seed, 0),
	}

	nonSources := c.N - c.Sources
	e.sourceOnes = int(c.Correct) * c.Sources
	initOnes, err := e.initialOnes(nonSources)
	if err != nil {
		return nil, err
	}

	// Opinions are set; distribute internal states. Every agent draws
	// its state independently from the memory law, as in the agent
	// engines, i.e. one multinomial split per opinion class.
	e.src.Multinomial(initOnes, law, e.occ.Counts[1])
	e.src.Multinomial(nonSources-initOnes, law, e.occ.Counts[0])
	e.ones = e.sourceOnes + initOnes
	return e, nil
}

// initialOnes computes the number of non-source agents starting at 1,
// preferring the initializer's aggregate form and falling back to a
// one-off materialized assignment for moderate populations.
func (e *aggregateExecutor) initialOnes(nonSources int) (int, error) {
	c := &e.cfg
	if agg, ok := c.Init.(AggregateInitializer); ok {
		ones := agg.AggregateOnes(c.N, nonSources, e.sourceOnes, e.src)
		if ones < 0 || ones > nonSources {
			return 0, fmt.Errorf("sim: initializer %q reported %d ones among %d non-sources",
				c.Init.Name(), ones, nonSources)
		}
		return ones, nil
	}

	// Fallback: materialize the opinions once. Refuse population sizes
	// where the temporary arrays would defeat the engine's purpose.
	const materializeLimit = 1 << 26
	if c.N > materializeLimit {
		return 0, fmt.Errorf("sim: initializer %q cannot start the aggregate engine at n = %d "+
			"(implement AggregateInitializer to avoid materializing the population)", c.Init.Name(), c.N)
	}
	opinions := make([]byte, c.N)
	isSource := make([]bool, c.N)
	for i := 0; i < c.Sources; i++ {
		isSource[i] = true
		opinions[i] = c.Correct
	}
	c.Init.Assign(opinions, isSource, e.src)
	for i := 0; i < c.Sources; i++ {
		if opinions[i] != c.Correct {
			return 0, fmt.Errorf("sim: initializer %q overwrote a source opinion", c.Init.Name())
		}
	}
	ones := 0
	for _, o := range opinions {
		ones += int(o)
	}
	return ones - e.sourceOnes, nil
}

// Ones implements roundExecutor.
func (e *aggregateExecutor) Ones() int { return e.ones }

// close implements roundExecutor (no background resources).
func (e *aggregateExecutor) close() {}

// Step implements roundExecutor.
func (e *aggregateExecutor) Step(correct byte) error {
	c := &e.cfg
	e.sourceOnes = int(correct) * c.Sources
	nonSourceOnes := e.occ.Ones()
	e.ones = e.sourceOnes + nonSourceOnes

	x := float64(e.ones) / float64(c.N)

	e.next.Zero()
	if e.annealedK > 0 {
		// Annealed sparse update: noise folds in per neighborhood class
		// (observations read j/k-fraction neighborhoods, not x), so the
		// raw fraction passes through.
		e.sparse.StepOccupancySparse(e.occ, e.next, e.annealedK, x, c.NoiseEps, e.src)
	} else {
		e.proto.StepOccupancy(e.occ, e.next, observedFraction(x, c.NoiseEps), e.src)
	}
	e.occ, e.next = e.next, e.occ

	e.ones = e.sourceOnes + e.occ.Ones()
	return nil
}
