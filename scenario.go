package passivespread

import (
	"context"
	"fmt"
	"math"
	"slices"

	"passivespread/internal/adversary"
	"passivespread/internal/async"
	"passivespread/internal/clocked"
)

// Scenario is a named, discoverable preset of the non-grid experimental
// conditions: the adversarial starting configuration, environment
// dynamics (observation noise, mid-run flips of the correct bit), the
// protocol under test, and — for the scheduling variants — a custom
// per-replicate runner (sequential activation, clocked baselines).
//
// Scenarios are the qualitative axis of a Sweep: the grid axes (n, ℓ,
// engine) say how big and how fast, the scenario says what world the
// protocol is dropped into. The built-in presets (Scenarios,
// ScenarioByName) cover the paper's configurations plus the
// extensions; a SweepSpec also runs any custom Scenario value it is
// given.
//
// The zero value of every field selects the paper's worst case: all-wrong
// start, corrupted memories, one source, FET, no noise, no flip,
// synchronous rounds.
type Scenario struct {
	// Name identifies the scenario in listings, CLI flags, and sweep
	// rows. Required.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Init chooses the starting opinions (nil = all-wrong relative to the
	// correct opinion, the adversarial default).
	Init Initializer
	// KeepMemories, when set, skips the adversarial corruption of agent
	// internal states before round 0. The default (false) is the paper's
	// self-stabilizing worst case.
	KeepMemories bool
	// Sources is the number of agreeing sources (0 = 1).
	Sources int
	// NoiseEps, when positive, flips every observed opinion bit
	// independently with this probability (must be < 1/2).
	NoiseEps float64
	// FlipFrac, when positive, flips the correct opinion at round
	// ⌈FlipFrac·MaxRounds⌉: the environment changes mid-run and
	// convergence is judged against the new correct value. Must be < 1.
	FlipFrac float64
	// Protocol overrides the update rule under test (nil = FET with the
	// cell's sample size ℓ). The constructor receives the resolved ℓ;
	// protocols that ignore it (Voter, 3-Majority) may do so.
	Protocol func(ell int) Protocol
	// Topology pins the observation topology of the scenario (nil = the
	// sweep cell's topology-axis value, itself defaulting to complete).
	// A pinned topology cannot cross a sweep's non-default topology axis,
	// and is incompatible with custom-runner scenarios and the
	// Markov-chain engine (both are uniform-mixing constructs).
	Topology Topology
	// Run, when non-nil, replaces the synchronous engine path entirely:
	// the scenario executes each replicate itself (used by the sequential
	// activation and clocked-baseline scenarios, whose schedulers are not
	// synchronous rounds). Custom-runner scenarios ignore the sweep's
	// engine axis; EngineLabel names what ran instead.
	Run ScenarioRunner
	// EngineLabel is reported as the engine of custom-runner cells.
	EngineLabel string
}

// ScenarioRunner executes one replicate of a custom-scheduled scenario.
// Implementations derive all randomness from p.Seed, and should return
// ctx.Err() when interrupted (the built-in runners are bounded by
// p.MaxRounds and check the context at round granularity or coarser).
type ScenarioRunner func(ctx context.Context, p ScenarioParams) (Result, error)

// ScenarioParams carries one sweep cell's resolved grid values plus a
// replicate's derived seed to a ScenarioRunner.
type ScenarioParams struct {
	// N is the population size including sources.
	N int
	// Ell is the resolved per-half sample size.
	Ell int
	// Sources is the resolved number of agreeing sources (≥ 1).
	Sources int
	// MaxRounds is the resolved round cap (parallel rounds for
	// activation-scheduled scenarios).
	MaxRounds int
	// Seed is the replicate's derived seed (StreamSeed(cell seed, i)).
	Seed uint64
	// Init is the resolved initializer (never nil).
	Init Initializer
}

// resolved returns the scenario's defaulted fields: initializer and
// source count. Scenarios are opinion-symmetric presets, so the correct
// opinion is always OpinionOne.
func (sc Scenario) resolved() (Initializer, int) {
	init := sc.Init
	if init == nil {
		init = adversary.AllWrong{Correct: OpinionOne}
	}
	sources := sc.Sources
	if sources == 0 {
		sources = 1
	}
	return init, sources
}

// validate checks the scenario's own fields (grid-independent).
// Messages follow the repository's "field: reason" error convention
// (see ErrInvalidOptions), with a "scenario %q: " context prefix.
func (sc Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("%w: Name: scenario name is required", ErrInvalidOptions)
	}
	if sc.NoiseEps < 0 || sc.NoiseEps >= 0.5 {
		return fmt.Errorf("%w: scenario %q: NoiseEps: %v, want in [0, 1/2)", ErrInvalidOptions, sc.Name, sc.NoiseEps)
	}
	if sc.FlipFrac < 0 || sc.FlipFrac >= 1 {
		return fmt.Errorf("%w: scenario %q: FlipFrac: %v, want in [0, 1)", ErrInvalidOptions, sc.Name, sc.FlipFrac)
	}
	if sc.Sources < 0 {
		return fmt.Errorf("%w: scenario %q: Sources: %d, want ≥ 0", ErrInvalidOptions, sc.Name, sc.Sources)
	}
	if sc.Run == nil && sc.EngineLabel != "" {
		return fmt.Errorf("%w: scenario %q: EngineLabel: only meaningful with a custom Run", ErrInvalidOptions, sc.Name)
	}
	if sc.Run != nil && sc.Topology != nil {
		return fmt.Errorf("%w: scenario %q: Topology: a custom Run defines its own scheduling and cannot pin a topology",
			ErrInvalidOptions, sc.Name)
	}
	return nil
}

// config builds the per-replicate simulation template of a synchronous
// sweep cell. The cell seed goes into Config.Seed (the Study root seed).
func (sc Scenario) config(n, ell, maxRounds int, engine EngineKind, topology Topology, cellSeed uint64) Config {
	init, sources := sc.resolved()
	var proto Protocol
	if sc.Protocol != nil {
		proto = sc.Protocol(ell)
	} else {
		proto = NewFET(ell)
	}
	flipAt := 0
	if sc.FlipFrac > 0 {
		flipAt = int(math.Ceil(sc.FlipFrac * float64(maxRounds)))
		if flipAt < 1 {
			flipAt = 1
		}
	}
	mem := Memory{Law: MemoryUniform}
	if sc.KeepMemories {
		mem = Memory{}
	}
	return Config{
		N:             n,
		Sources:       sources,
		Correct:       OpinionOne,
		Protocol:      proto,
		Init:          init,
		Engine:        engine,
		Topology:      topology,
		Seed:          cellSeed,
		MaxRounds:     maxRounds,
		Memory:        mem,
		NoiseEps:      sc.NoiseEps,
		FlipCorrectAt: flipAt,
	}
}

// chainCompatible reports whether the scenario can run on the
// EngineMarkovChain pseudo-engine, which models exactly the default FET
// process: one source, no noise, no flips, no per-agent protocol or
// scheduler overrides, and an initializer with a deterministic opinion
// fraction.
func (sc Scenario) chainCompatible() bool {
	if sc.Run != nil || sc.Protocol != nil || sc.NoiseEps != 0 || sc.FlipFrac != 0 || sc.Sources > 1 || sc.Topology != nil {
		return false
	}
	switch sc.Init.(type) {
	case nil, adversary.AllWrong, adversary.AllCorrect, adversary.Fraction:
		return true
	default:
		return false
	}
}

// cell builds the executor of one scenario cell at resolved grid values
// through newCell. The template is the Options form — which carries a
// custom runner's ScenarioParams and is the only form the chain engine
// accepts — plus, for every other engine, the Config form it runs.
func (sc Scenario) cell(n, ell, maxRounds int, engine EngineKind, topology Topology, cellSeed uint64,
	replicates int) (cellExec, error) {
	init, sources := sc.resolved()
	spec := StudySpec{Replicates: replicates, Options: Options{
		N:         n,
		Ell:       ell,
		Seed:      cellSeed,
		Sources:   sources,
		Init:      init,
		MaxRounds: maxRounds,
		Engine:    engine,
	}}
	if engine != EngineMarkovChain {
		cfg := sc.config(n, ell, maxRounds, engine, topology, cellSeed)
		spec.Config = &cfg
	}
	return newCell(&spec, sc.Run)
}

// engineLabel is the engine name a custom-runner scenario's cells
// report: EngineLabel, or the scenario name when that is empty.
func (sc Scenario) engineLabel() string {
	if sc.EngineLabel != "" {
		return sc.EngineLabel
	}
	return sc.Name
}

// presets is the built-in scenario table, sorted by name: the paper's
// configurations plus the extensions. Scenarios and ScenarioByName read
// it; TestScenarioPresets checks that its names are unique and sorted
// and that every entry validates.
var presets = []Scenario{
	{
		Name:        "async",
		Description: "sequential-activation (population-protocol) scheduling; documented negative result",
		Run:         runAsyncScenario,
		EngineLabel: "async",
	},
	{
		Name:         "clean-start",
		Description:  "all-wrong opinions but fresh (uncorrupted) memories",
		KeepMemories: true,
	},
	{
		Name:        "clocked-local",
		Description: "clocked phase baseline with adversarially desynchronized local clocks (non-passive messages)",
		Run:         clockedRunner(ModeLocalClocks, true),
		EngineLabel: "clocked-local",
	},
	{
		Name:        "clocked-shared",
		Description: "Section 1.4 clocked phase baseline with a shared global clock",
		Run:         clockedRunner(ModeSharedClock, false),
		EngineLabel: "clocked-shared",
	},
	{
		Name:        "half-split",
		Description: "exact 50/50 opinion split, corrupted memories (maximally undecided start)",
		Init:        adversary.HalfSplit(),
	},
	{
		Name:        "multi-source",
		Description: "eight agreeing sources from the all-wrong start (§5 extension)",
		Sources:     8,
	},
	{
		Name:        "noisy",
		Description: "worst case under ε = 0.1 observation noise (Feinerman et al. model)",
		NoiseEps:    0.1,
	},
	{
		Name:        "simple-trend",
		Description: "unpartitioned SimpleTrend variant (§1.3) from the worst case",
		Protocol:    func(ell int) Protocol { return NewSimpleTrend(ell) },
	},
	// The sparse-* presets drop the paper's uniform-mixing assumption:
	// the same worst-case start on structured observation topologies
	// (internal/topo).
	{
		Name:        "sparse-dynamic",
		Description: "worst case on a random 8-out digraph rewired per agent w.p. 0.2 each round",
		Topology:    DynamicRewire(8, 0.2),
	},
	{
		Name:        "sparse-regular",
		Description: "worst case on a random 8-out observation digraph (uniform mixing removed)",
		Topology:    RandomRegular(8),
	},
	{
		Name:        "sparse-ring",
		Description: "worst case on the 2-nearest-neighbor ring (maximal diameter; spread is local)",
		Topology:    Ring(2),
	},
	{
		Name:        "sparse-small-world",
		Description: "worst case on a Watts–Strogatz small world (ring:4 base, β = 0.1 rewiring)",
		Topology:    SmallWorld(4, 0.1),
	},
	{
		Name:        "trend-flip",
		Description: "correct bit flips halfway through the horizon; re-stabilization is required",
		FlipFrac:    0.5,
	},
	{
		Name:        "uniform",
		Description: "independent fair-coin opinions, corrupted memories",
		Init:        adversary.Uniform{},
	},
	{
		Name:        "voter-control",
		Description: "Voter baseline vs a stubborn source (§1.4 control; expected not to converge)",
		Protocol:    func(int) Protocol { return Voter() },
	},
	{
		Name:        DefaultScenario,
		Description: "all-wrong start, corrupted memories (the paper's headline adversarial case)",
	},
}

// Scenarios returns a copy of the built-in presets sorted by name, so
// every listing (fetlab -scenarios, fetserve's fet.scenarios.list, docs)
// renders identically.
func Scenarios() []Scenario { return slices.Clone(presets) }

// ScenarioByName returns the built-in preset with the given name.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range presets {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// DefaultScenario is the name of the paper's headline configuration
// (all-wrong start with corrupted memories), used when a SweepSpec names
// no scenarios.
const DefaultScenario = "worst-case"

// runAsyncScenario executes one replicate under sequential activation
// (internal/async). Time is reported in parallel units: n activations =
// one round-equivalent, so the Result maps onto the synchronous shape.
func runAsyncScenario(ctx context.Context, p ScenarioParams) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	r, err := async.Run(async.Config{
		N:                 p.N,
		Ell:               p.Ell,
		Sources:           p.Sources,
		Correct:           OpinionOne,
		Init:              p.Init,
		Seed:              p.Seed,
		MaxParallelRounds: p.MaxRounds,
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Converged: r.Converged,
		Round:     -1,
		Rounds:    (r.Activations + p.N - 1) / p.N,
		FinalX:    r.FinalX,
	}
	if r.Converged {
		res.Round = int(math.Ceil(r.ParallelRound))
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// clockedRunner returns a ScenarioRunner for the clocked phase baseline
// in the given mode.
func clockedRunner(mode ClockedMode, desync bool) ScenarioRunner {
	return func(ctx context.Context, p ScenarioParams) (Result, error) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		r, err := clocked.Run(clocked.Config{
			N:            p.N,
			Sources:      p.Sources,
			Correct:      OpinionOne,
			Mode:         mode,
			DesyncClocks: desync,
			Init:         p.Init,
			Seed:         p.Seed,
			MaxRounds:    p.MaxRounds,
		})
		if err != nil {
			return Result{}, err
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{
			Converged: r.Converged,
			Round:     r.Round,
			Rounds:    r.Rounds,
			FinalX:    r.FinalX,
		}, nil
	}
}
