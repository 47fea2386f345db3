// Package adversary provides the adversarial initial configurations of the
// self-stabilizing setting: the adversary chooses every non-source agent's
// starting opinion and, through the sim.Config.Memory law (GridStart
// composes both), its internal memory. Convergence must hold from all
// of them.
package adversary

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

// AllWrong starts every non-source agent on the opinion opposite to
// correct — the classic hard case for rumor spreading (agents may "think"
// they are already informed).
type AllWrong struct {
	// Correct is the source's opinion; non-sources start at 1−Correct.
	Correct byte
}

var _ sim.Initializer = AllWrong{}

// Name implements sim.Initializer.
func (AllWrong) Name() string { return "all-wrong" }

// Assign implements sim.Initializer.
func (a AllWrong) Assign(opinions []byte, isSource []bool, _ *rng.Source) {
	wrong := 1 - a.Correct
	for i := range opinions {
		if !isSource[i] {
			opinions[i] = wrong
		}
	}
}

// AllCorrect starts every agent on the correct opinion (the easy case;
// useful for absorption tests).
type AllCorrect struct {
	Correct byte
}

var _ sim.Initializer = AllCorrect{}

// Name implements sim.Initializer.
func (AllCorrect) Name() string { return "all-correct" }

// Assign implements sim.Initializer.
func (a AllCorrect) Assign(opinions []byte, isSource []bool, _ *rng.Source) {
	for i := range opinions {
		if !isSource[i] {
			opinions[i] = a.Correct
		}
	}
}

// Uniform starts each non-source agent on an independent fair coin.
type Uniform struct{}

var _ sim.Initializer = Uniform{}

// Name implements sim.Initializer.
func (Uniform) Name() string { return "uniform" }

// Assign implements sim.Initializer.
func (Uniform) Assign(opinions []byte, isSource []bool, src *rng.Source) {
	for i := range opinions {
		if !isSource[i] {
			opinions[i] = src.Bit()
		}
	}
}

// Fraction starts with an exact fraction X of 1-opinions among the whole
// population (the engine pre-sets sources; Fraction tops up non-sources so
// the total count of 1s is round(X·n), shuffled uniformly).
type Fraction struct {
	// X is the target fraction of 1-opinions over the whole population,
	// in [0, 1].
	X float64
}

var _ sim.Initializer = Fraction{}

// Name implements sim.Initializer.
func (f Fraction) Name() string { return fmt.Sprintf("fraction(%.4f)", f.X) }

// freeSlots recycles Fraction.Assign's free-slot index buffers: a Study
// assigns once per replicate, and a fresh n-int slice each time was
// nearly all the allocation of a pooled lockstep Study.
var freeSlots = sync.Pool{New: func() any { return new([]int) }}

// Assign implements sim.Initializer.
func (f Fraction) Assign(opinions []byte, isSource []bool, src *rng.Source) {
	n := len(opinions)
	buf := freeSlots.Get().(*[]int)
	defer freeSlots.Put(buf)

	// Count the 1s already fixed by the sources and collect the free slots.
	fixedOnes := 0
	free := slices.Grow((*buf)[:0], n)
	*buf = free
	for i := range opinions {
		if isSource[i] {
			fixedOnes += int(opinions[i])
		} else {
			free = append(free, i)
		}
	}
	// One copy of the target arithmetic: the aggregate form is the source
	// of truth, so the two initialization paths cannot drift apart.
	need := f.AggregateOnes(n, len(free), fixedOnes, src)
	// Source.Shuffle's Fisher–Yates loop, inline: the same Intn draws
	// without a swap closure call per slot.
	for i := len(free) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		free[i], free[j] = free[j], free[i]
	}
	for k, idx := range free {
		if k < need {
			opinions[idx] = sim.OpinionOne
		} else {
			opinions[idx] = sim.OpinionZero
		}
	}
}

// HalfSplit is the maximally undecided start: an exact 50/50 split.
func HalfSplit() Fraction { return Fraction{X: 0.5} }

// Aggregate forms of the stock initializers, so the occupancy engine can
// start at populations where a per-agent opinion array is not affordable.
// Each returns the same distribution over initial 1-counts as the
// corresponding Assign (though not the same per-seed draws: the aggregate
// engine is a distributional, not bitwise, twin of the agent engines).

var (
	_ sim.AggregateInitializer = AllWrong{}
	_ sim.AggregateInitializer = AllCorrect{}
	_ sim.AggregateInitializer = Uniform{}
	_ sim.AggregateInitializer = Fraction{}
)

// AggregateOnes implements sim.AggregateInitializer.
func (a AllWrong) AggregateOnes(_, nonSources, _ int, _ *rng.Source) int {
	if a.Correct == sim.OpinionZero {
		return nonSources // everyone starts on the wrong opinion, 1
	}
	return 0
}

// AggregateOnes implements sim.AggregateInitializer.
func (a AllCorrect) AggregateOnes(_, nonSources, _ int, _ *rng.Source) int {
	return int(a.Correct) * nonSources
}

// AggregateOnes implements sim.AggregateInitializer.
func (Uniform) AggregateOnes(_, nonSources, _ int, src *rng.Source) int {
	return src.Binomial(nonSources, 0.5)
}

// AggregateOnes implements sim.AggregateInitializer.
func (f Fraction) AggregateOnes(n, nonSources, sourceOnes int, _ *rng.Source) int {
	if f.X < 0 || f.X > 1 || math.IsNaN(f.X) {
		panic(fmt.Sprintf("adversary: Fraction with X = %v", f.X))
	}
	need := int(math.Round(f.X*float64(n))) - sourceOnes
	if need < 0 {
		need = 0
	}
	if need > nonSources {
		need = nonSources
	}
	return need
}

// GridStart bundles the initial opinions and stored counts that place
// the FET chain at the grid point (x_t, x_{t+1}) = (X0, X1):
// conditioned on the previous round having had a 1-fraction of X0, the
// stored counts are i.i.d. Binomial(ℓ, X0).
type GridStart struct {
	// X0 is the emulated previous-round fraction x_t.
	X0 float64
	// X1 is the starting fraction x_{t+1} (the actual initial opinions).
	X1 float64
}

// Init returns the opinion initializer part (fraction X1).
func (g GridStart) Init() sim.Initializer { return Fraction{X: g.X1} }

// Memory returns the stored-count part (counts ~ B(ℓ, X0)).
func (g GridStart) Memory() sim.Memory {
	return sim.Memory{Law: sim.MemoryBinomial, X0: g.X0}
}
