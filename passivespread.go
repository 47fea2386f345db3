// Package passivespread is a reproduction of "Early Adapting to Trends:
// Self-Stabilizing Information Spread using Passive Communication"
// (Korman and Vacus, PODC 2022, arXiv:2203.11522).
//
// It provides the Follow the Emerging Trend (FET) protocol for the
// self-stabilizing bit-dissemination problem in the PULL model with
// passive communication, a layered family of simulation engines — agent
// level (sequential and sharded-parallel), aggregate occupancy level,
// and the induced Markov chain — the paper's baselines, the state-space
// geometry of its analysis, and a harness that reproduces every figure
// and lemma-level claim (see DESIGN.md and EXPERIMENTS.md).
//
// # Quickstart
//
// The paper's claims are statements about distributions over many runs,
// so the primary entry point is the Study API: describe a batch of
// replicates, run it, stream per-replicate results, read the aggregate
// report.
//
//	study, err := passivespread.NewStudy(passivespread.StudySpec{
//		Replicates: 200,
//		Options:    passivespread.Options{N: 4096, Seed: 1},
//	})
//	report, err := study.Run(ctx)
//	// report.Convergence.SuccessRate, report.Convergence.Rounds.Median, …
//
// Replicates fan out across a worker pool (StudySpec.Workers, default
// GOMAXPROCS) over any engine, including the (K_t, K_{t+1}) Markov chain
// (EngineMarkovChain). Results stream as they finish via Study.Stream,
// and the context is honored inside every replicate's round loop.
//
// # Seed derivation
//
// Replicate i runs with seed StreamSeed(root, i), the same SplitMix64
// stream discipline that derives per-agent generators inside a run
// (internal/rng). Seeds depend only on (root seed, replicate index) —
// never on scheduling — so a Study's results are bit-identical at every
// worker count, and re-running a spec reproduces every replicate
// exactly (RunResult.Seed identifies each replicate's derived stream).
//
// For one-shot runs, Disseminate covers the common case (FET under the
// worst-case defaults) and Run takes a full Config; both are thin
// wrappers over a single-replicate Study. Per-round visibility is
// available through typed Observer event streams (Config.Observers).
//
// # Sweeps and scenarios
//
// Parameter grids — the paper's phase diagrams — are first-class: a
// SweepSpec crosses the Ns × Ells × Engines × Topologies × Scenarios
// axes, NewSweep expands the grid, and Sweep.Run / Sweep.Stream execute
// every cell's replicates from one shared worker pool, rendering
// CSV/JSON artifacts (SweepReport). Cell c runs with seed StreamSeed(root, c), extending
// the replicate rule one level up, so sweep outputs are byte-identical
// at every worker count. Scenario presets (Scenarios, ScenarioByName)
// name the qualitative conditions: adversarial starts, observation
// noise, mid-run flips of the correct bit, source counts, baseline
// protocols, sparse observation topologies, and async/clocked
// scheduling variants. See DESIGN.md §3.
//
// # Observation topologies
//
// The paper's uniform-mixing assumption is itself a pluggable layer:
// Options.Topology / Config.Topology / SweepSpec.Topologies select who
// each agent can observe (CompleteTopology, Ring, Torus, RandomRegular,
// SmallWorld, DynamicRewire; ParseTopology for CLI specs). Complete is
// the default and leaves every output byte-identical to the
// pre-topology layout; non-complete topologies run on the agent engines
// with the same determinism contract. See DESIGN.md §5.
package passivespread

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"passivespread/internal/adversary"
	"passivespread/internal/core"
	"passivespread/internal/experiment"
	"passivespread/internal/markov"
	"passivespread/internal/sim"
	"passivespread/internal/topo"
)

// Re-exported simulation types. The aliases expose the full engine API at
// the module root so downstream users never import internal packages.
type (
	// Config describes one agent-level simulation run; see the field docs
	// on the underlying type.
	Config = sim.Config
	// Result reports a simulation outcome; Result.Round is t_con.
	Result = sim.Result
	// Protocol is a per-agent update rule factory.
	Protocol = sim.Protocol
	// Agent is a per-agent update rule.
	Agent = sim.Agent
	// Observation is an agent's random-sampling access within a round.
	Observation = sim.Observation
	// Initializer chooses adversarial starting opinions.
	Initializer = sim.Initializer
	// EngineKind selects the observation engine.
	EngineKind = sim.EngineKind
	// Observer receives a typed RoundEvent after every executed round.
	Observer = sim.Observer
	// RoundEvent is the per-round snapshot delivered to Observers.
	RoundEvent = sim.RoundEvent
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = sim.ObserverFunc
	// TrajectoryRecorder is an Observer collecting x_t per round.
	TrajectoryRecorder = sim.TrajectoryRecorder
	// Memory is Config.Memory, the law of the agents' initial stored
	// memories.
	Memory = sim.Memory
)

// Opinion constants and engine kinds.
const (
	OpinionZero = sim.OpinionZero
	OpinionOne  = sim.OpinionOne

	// MemoryFresh, MemoryUniform and MemoryBinomial are the Memory laws:
	// memories as constructed, uniform worst-case memories, and stored
	// counts drawn Binomial(ℓ, X0) (the GridStart law).
	MemoryFresh    = sim.MemoryFresh
	MemoryUniform  = sim.MemoryUniform
	MemoryBinomial = sim.MemoryBinomial

	// EngineAgentFast draws observations from tabulated binomial laws
	// (default, statistically identical to exact).
	EngineAgentFast = sim.EngineAgentFast
	// EngineAgentExact samples agent indices literally.
	EngineAgentExact = sim.EngineAgentExact
	// EngineAggregate advances per-state occupancy counts instead of
	// agents: rounds cost O(ℓ²) independent of n, reaching populations of
	// 10⁸ and beyond with agent-level-exact statistics.
	EngineAggregate = sim.EngineAggregate
	// EngineAggregateSparse is the occupancy engine for degree-annealed
	// sparse topologies (random-regular k-out and dynamic rewiring):
	// rounds cost O(k·ℓ²) independent of n, so sparse-topology sweeps
	// reach 10⁸ agents the way complete ones already do. Topologies with
	// fixed local structure (ring, torus, small-world) are rejected with
	// ErrInvalidOptions.
	EngineAggregateSparse = sim.EngineAggregateSparse

	// EngineMarkovChain selects the induced (K_t, K_{t+1}) opinion-count
	// Markov chain of Observation 1 as a Study's replicate engine. It is
	// a root-level pseudo-engine: only the Study API executes it (the
	// chain simulates the opinion-count pair alone, reaching populations
	// of 10⁹ and beyond); Run and Disseminate reject it.
	EngineMarkovChain EngineKind = -1
)

// ErrStopRun is returned by an Observer to request a clean early stop;
// the run reports StoppedEarly instead of an error.
var ErrStopRun = sim.ErrStopRun

// StopWhen returns an Observer that requests an early stop as soon as
// pred returns true.
func StopWhen(pred func(ev RoundEvent) bool) Observer { return sim.StopWhen(pred) }

// engineFlags is the engine vocabulary: each engine's CLI flag, in
// flag-listing order. Display names come from EngineName; ParseEngine
// and the fetserve listings derive from this table.
var engineFlags = []struct {
	flag string
	kind EngineKind
}{
	{"fast", EngineAgentFast},
	{"exact", EngineAgentExact},
	{"aggregate", EngineAggregate},
	{"aggregate-sparse", EngineAggregateSparse},
	{"chain", EngineMarkovChain},
}

// ParseEngine returns the engine named by its CLI flag ("fast",
// "exact", "aggregate", "aggregate-sparse" or "chain") or by its
// display name (EngineName: "agent-fast", "markov-chain", …). The
// removed "parallel" engine errors with a message naming its
// replacement: sharding is a schedule, not a sampling law.
func ParseEngine(name string) (EngineKind, error) {
	for _, e := range engineFlags {
		if name == e.flag || name == EngineName(e.kind) {
			return e.kind, nil
		}
	}
	if name == "parallel" || name == "agent-parallel" {
		return 0, fmt.Errorf("engine %q is removed: use \"fast\" (sharded rounds are the Parallelism option, fetsim -parallelism)", name)
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}

// EngineName returns the engine's display name, covering the root-level
// EngineMarkovChain pseudo-engine as well.
func EngineName(k EngineKind) string {
	if k == EngineMarkovChain {
		return "markov-chain"
	}
	return k.String()
}

// Run executes an agent-level simulation as a single-replicate Study: the
// simulation runs with seed StreamSeed(cfg.Seed, 0) per the Study seed
// contract. It is the low-level entry point; Disseminate covers the
// common case and NewStudy the batch case.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run honoring ctx inside the round loop: cancellation or
// deadline expiry ends the simulation within one round with ctx.Err().
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	study, err := NewStudy(StudySpec{Replicates: 1, Workers: 1, Config: &cfg})
	if err != nil {
		return Result{}, err
	}
	return study.runSingle(ctx)
}

// NewFET returns the paper's Protocol 1 with per-half sample size ell
// (2·ell observations per agent per round).
func NewFET(ell int) Protocol { return core.NewFET(ell) }

// NewSimpleTrend returns the unpartitioned trend-following variant from
// Section 1.3 (single count per round, reused for both comparisons).
func NewSimpleTrend(ell int) Protocol { return core.NewSimpleTrend(ell) }

// SampleSize returns the default ℓ = ⌈3·log₂ n⌉ used across the
// reproduction. SampleSizeC generalizes the constant.
func SampleSize(n int) int { return core.SampleSize(n, core.DefaultC) }

// SampleSizeC returns ℓ = ⌈c·log₂ n⌉.
func SampleSizeC(n int, c float64) int { return core.SampleSize(n, c) }

// DefaultC is the sample-size constant of SampleSize.
const DefaultC = core.DefaultC

// DefaultMaxRounds returns the default round cap 400·⌈log₂ n⌉ applied
// when Options.MaxRounds (or a CLI round flag) is zero.
func DefaultMaxRounds(n int) int {
	return 400 * int(math.Ceil(math.Log2(float64(n))))
}

// Initializers for the adversarial starting configurations.

// AllWrong starts every non-source agent on the opinion opposite to
// correct.
func AllWrong(correct byte) Initializer { return adversary.AllWrong{Correct: correct} }

// UniformInit starts each non-source agent on an independent fair coin.
func UniformInit() Initializer { return adversary.Uniform{} }

// FractionInit starts with an exact fraction x of 1-opinions.
func FractionInit(x float64) Initializer { return adversary.Fraction{X: x} }

// HalfInit starts with an exact half/half opinion split.
func HalfInit() Initializer { return adversary.HalfSplit() }

// ErrInvalidOptions is wrapped by every validation error returned from
// NewStudy, NewSweep, Disseminate and Run for a malformed specification,
// so callers can test with errors.Is without matching message text.
//
// Message convention: the text after the sentinel takes the form
// "[context: ]Field: reason" — the offending field is always named
// first (e.g. "N: 1, want ≥ 2", "scenario \"noisy\": NoiseEps: 0.7,
// want in [0, 1/2)"), so services such as fetserve can surface the
// message verbatim in typed invalidArgument payloads.
var ErrInvalidOptions = errors.New("passivespread: invalid options")

// Options configures Disseminate and the Options form of a StudySpec.
type Options struct {
	// N is the population size including the source (required, ≥ 2).
	N int
	// Seed is the root randomness seed.
	Seed uint64
	// CorrectZero makes the correct opinion 0 instead of the default 1.
	// (The problem is symmetric; a boolean keeps the zero value useful.)
	CorrectZero bool
	// Ell overrides the per-half sample size (default ⌈3·log₂ N⌉).
	Ell int
	// Sources is the number of agreeing sources (default 1).
	Sources int
	// Init overrides the starting configuration (default all-wrong with
	// adversarially corrupted internal counters — the hard case).
	Init Initializer
	// MaxRounds overrides the round cap (default 400·log₂ N).
	MaxRounds int
	// RecordTrajectory stores x_t per round in the result.
	RecordTrajectory bool
	// Engine selects the round executor (default EngineAgentFast). Use
	// EngineAggregate for populations beyond agent-level reach, and (in
	// Studies only) EngineMarkovChain for the opinion-count chain.
	Engine EngineKind
	// Parallelism shards each round of an agent engine (fast or exact)
	// across that many workers (0 or 1 = one shard). Any value yields
	// bit-identical results.
	Parallelism int
	// Topology selects the observation topology (nil = CompleteTopology(),
	// the paper's uniform mixing). Non-complete topologies run on the
	// agent engines only: EngineAggregate and EngineMarkovChain are exact
	// only under uniform mixing and are rejected with ErrInvalidOptions.
	Topology Topology
}

// validate checks the fields that default derivation and the simulator's
// own validation would otherwise mis-handle or report late, wrapping
// every failure in ErrInvalidOptions.
func (o Options) validate() error {
	if o.N < 2 {
		return fmt.Errorf("%w: N: %d, want ≥ 2", ErrInvalidOptions, o.N)
	}
	if o.Ell < 0 {
		return fmt.Errorf("%w: Ell: %d, want ≥ 0", ErrInvalidOptions, o.Ell)
	}
	if o.Sources < 0 || o.Sources >= o.N {
		return fmt.Errorf("%w: Sources: %d, want in [0, N)", ErrInvalidOptions, o.Sources)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("%w: MaxRounds: %d, want ≥ 0", ErrInvalidOptions, o.MaxRounds)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism: %d, want ≥ 0", ErrInvalidOptions, o.Parallelism)
	}
	// Engine/topology incompatibilities fail here, up front, instead of
	// surfacing from inside a Study worker mid-batch.
	if err := checkCell(o.Engine, Scenario{}, o.Topology); err != nil {
		return err
	}
	if !topo.IsComplete(o.Topology) {
		if err := o.Topology.Validate(o.N); err != nil {
			return fmt.Errorf("%w: Topology: %v", ErrInvalidOptions, err)
		}
	}
	return nil
}

// derive validates the options and resolves the defaulted parameters
// shared by the agent-level and chain forms: the per-half sample size
// and the round cap. Validation runs up front, so defaults (in
// particular the MaxRounds cap, which previously stayed 0 for N < 2 and
// surfaced as a confusing downstream error) are always well defined.
func (o Options) derive() (ell, maxRounds int, err error) {
	if err := o.validate(); err != nil {
		return 0, 0, err
	}
	ell = o.Ell
	if ell == 0 {
		ell = SampleSize(o.N)
	}
	maxRounds = o.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds(o.N)
	}
	return ell, maxRounds, nil
}

// config derives the worst-case-default simulation configuration.
func (o Options) config() (Config, error) {
	ell, maxRounds, err := o.derive()
	if err != nil {
		return Config{}, err
	}
	correct := OpinionOne
	if o.CorrectZero {
		correct = OpinionZero
	}
	init := o.Init
	if init == nil {
		init = AllWrong(correct)
	}
	return Config{
		N:                o.N,
		Sources:          o.Sources,
		Correct:          correct,
		Protocol:         core.NewFET(ell),
		Init:             init,
		Engine:           o.Engine,
		Parallelism:      o.Parallelism,
		Topology:         o.Topology,
		Seed:             o.Seed,
		MaxRounds:        maxRounds,
		Memory:           Memory{Law: MemoryUniform},
		RecordTrajectory: o.RecordTrajectory,
	}, nil
}

// Disseminate runs FET end-to-end under the worst-case defaults as a
// single-replicate Study and returns the simulation result. The
// Markov-chain pseudo-engine reports different semantics (opinion
// counts, not agents) and is only available through NewStudy.
func Disseminate(opts Options) (Result, error) {
	if opts.Engine == EngineMarkovChain {
		return Result{}, fmt.Errorf("%w: Engine: EngineMarkovChain is only available through NewStudy", ErrInvalidOptions)
	}
	study, err := NewStudy(StudySpec{Replicates: 1, Workers: 1, Options: opts})
	if err != nil {
		return Result{}, err
	}
	return study.runSingle(context.Background())
}

// Chain is the aggregate Markov-chain engine (Observation 1): it
// simulates only the opinion-count process and scales to populations of
// 10⁹ and beyond.
type Chain = markov.Chain

// ChainState is a point (K_t, K_{t+1}) of the chain.
type ChainState = markov.State

// NewChain returns a Chain for population n with per-half sample size
// ell, seeded deterministically.
func NewChain(n, ell int, seed uint64) *Chain { return markov.New(n, ell, seed) }

// Experiment metadata and execution, re-exported from the harness.
type (
	// Experiment is one reproduction experiment (E01–E23).
	Experiment = experiment.Experiment
	// ExperimentConfig controls an experiment run.
	ExperimentConfig = experiment.Config
	// ExperimentReport is an experiment's structured output.
	ExperimentReport = experiment.Report
)

// sweepExperiments lists the experiments that run through the public
// Sweep layer and so live in this package (experiments_*.go). It is a
// function for the reason experiment.All is: each Run starts its report
// from its own entry here.
func sweepExperiments() []Experiment {
	return []Experiment{
		{ID: "E01", Title: "FET convergence-time scaling (agent engine + aggregate chain)", PaperRef: "Theorem 1", Run: runE01},
		{ID: "E13", Title: "Sample-size ablation: constant ℓ vs ℓ = Θ(log n)", PaperRef: "Section 5 (future work)", Run: runE13},
		{ID: "E23", Title: "Cross-topology convergence: FET beyond uniform mixing", PaperRef: "Section 5 (future work: structured interaction)", Run: runE23},
	}
}

// Experiments returns every experiment (E01–E23) sorted by ID.
func Experiments() []Experiment {
	all := append(experiment.All(), sweepExperiments()...)
	slices.SortFunc(all, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return all
}

// LookupExperiment returns the experiment with the given ID ("E01"…).
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RenderExperimentText renders a report as the fetlab text format.
func RenderExperimentText(r *ExperimentReport) string { return experiment.RenderText(r) }

// RenderExperimentMarkdown renders a report as Markdown.
func RenderExperimentMarkdown(r *ExperimentReport) string { return experiment.RenderMarkdown(r) }
