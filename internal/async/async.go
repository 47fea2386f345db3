// Package async implements a sequential-activation (population-protocol
// style) variant of the FET dynamics, as an exploratory extension beyond
// the paper's synchronous model.
//
// The paper's related work grounds the problem in population protocols
// (Angluin et al. 2006), where agents activate one at a time under a
// uniformly random scheduler rather than in lockstep rounds. In this
// variant, each activation lets one agent draw its two ℓ-sample counts
// and apply the FET rule against the count stored at its *previous
// activation*. Time is reported in parallel units: n activations = 1
// round-equivalent.
//
// The empirical outcome is a NEGATIVE result, documented by experiment
// E22: the dynamics hover near x = 1/2 and do not converge within any
// polylog-scale horizon. The reason is structural and illuminates why
// the paper's synchronous rounds matter: in the synchronous protocol all
// agents compare the same two rounds, so their decisions are correlated
// and each round's drift concentrates into collective momentum (the
// speed build-up of Lemmas 7–10). Under sequential activation every
// agent's comparison window is a different, geometrically distributed
// stretch of the past; the trend estimates decorrelate, the momentum
// vanishes, and what remains is an unbiased wander around the center
// with only the O(1/n) source pull. Restoring coherence (e.g. with
// self-stabilizing phase clocks) is exactly the machinery the paper's
// passive-communication setting rules out.
//
// The all-correct configuration is still absorbing: once every opinion
// equals the source's, an activating agent observes the extreme count
// (ℓ on the 1 side, 0 on the 0 side), which can never lose the
// comparison against any stored value, so its opinion never changes.
package async

import (
	"fmt"

	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

// Config describes one asynchronous FET run.
type Config struct {
	// N is the population size including sources (≥ 2).
	N int
	// Ell is the per-half sample size (≥ 1).
	Ell int
	// Sources is the number of agreeing sources (default 1).
	Sources int
	// Correct is the sources' opinion.
	Correct byte
	// Init chooses starting opinions (required).
	Init sim.Initializer
	// Seed is the root randomness seed.
	Seed uint64
	// MaxParallelRounds caps the run in parallel-time units (each unit is
	// N activations). Required.
	MaxParallelRounds int
}

// Result reports an asynchronous run.
type Result struct {
	// Converged reports whether the all-correct configuration was
	// reached (absorbing; see the package comment).
	Converged bool
	// ParallelRound is the activation count divided by N at convergence,
	// or −1.
	ParallelRound float64
	// Activations is the number of executed activations.
	Activations int
	// FinalX is the final fraction of 1-opinions.
	FinalX float64
}

func (c *Config) validate() (Config, error) {
	cfg := *c
	if cfg.N < 2 {
		return cfg, fmt.Errorf("async: N = %d, want ≥ 2", cfg.N)
	}
	if cfg.Ell < 1 {
		return cfg, fmt.Errorf("async: Ell = %d, want ≥ 1", cfg.Ell)
	}
	if cfg.Sources == 0 {
		cfg.Sources = 1
	}
	if cfg.Sources < 1 || cfg.Sources >= cfg.N {
		return cfg, fmt.Errorf("async: Sources = %d out of [1, N)", cfg.Sources)
	}
	if cfg.Correct > 1 {
		return cfg, fmt.Errorf("async: Correct = %d", cfg.Correct)
	}
	if cfg.Init == nil {
		return cfg, fmt.Errorf("async: Init is required")
	}
	if cfg.MaxParallelRounds <= 0 {
		return cfg, fmt.Errorf("async: MaxParallelRounds = %d", cfg.MaxParallelRounds)
	}
	return cfg, nil
}

// Run executes the asynchronous FET dynamics.
func Run(cfg Config) (Result, error) {
	c, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	n := c.N

	opinions := make([]byte, n)
	counts := make([]int, n)
	isSource := make([]bool, n)
	for i := 0; i < c.Sources; i++ {
		isSource[i] = true
		opinions[i] = c.Correct
	}
	src := rng.New(c.Seed)
	c.Init.Assign(opinions, isSource, src)
	for i := 0; i < c.Sources; i++ {
		if opinions[i] != c.Correct {
			return Result{}, fmt.Errorf("async: initializer %q overwrote a source opinion", c.Init.Name())
		}
	}
	// Stored counts start adversarially corrupted, uniform on [0, ℓ].
	for i := c.Sources; i < n; i++ {
		counts[i] = src.Intn(c.Ell + 1)
	}

	ones := 0
	for _, o := range opinions {
		ones += int(o)
	}
	wantOnes := 0 // count of 1s in the all-correct configuration
	if c.Correct == sim.OpinionOne {
		wantOnes = n
	}

	res := Result{ParallelRound: -1}
	maxTicks := c.MaxParallelRounds * n
	for tick := 0; tick < maxTicks; tick++ {
		if ones == wantOnes {
			res.Converged = true
			res.ParallelRound = float64(tick) / float64(n)
			res.Activations = tick
			res.FinalX = float64(ones) / float64(n)
			return res, nil
		}
		i := src.Intn(n)
		if isSource[i] {
			continue
		}
		x := float64(ones) / float64(n)
		countPrime := src.Binomial(c.Ell, x)
		countDoublePrime := src.Binomial(c.Ell, x)
		out := opinions[i]
		switch {
		case countPrime > counts[i]:
			out = sim.OpinionOne
		case countPrime < counts[i]:
			out = sim.OpinionZero
		}
		counts[i] = countDoublePrime
		if out != opinions[i] {
			ones += int(out) - int(opinions[i])
			opinions[i] = out
		}
	}
	res.Activations = maxTicks
	res.FinalX = float64(ones) / float64(n)
	res.Converged = ones == wantOnes
	if res.Converged {
		res.ParallelRound = float64(c.MaxParallelRounds)
	}
	return res, nil
}
