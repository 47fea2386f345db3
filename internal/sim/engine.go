package sim

import (
	"context"
	"errors"
	"fmt"

	"passivespread/internal/topo"
)

// Config describes one simulation run.
type Config struct {
	// N is the population size, including sources. Must be ≥ 2.
	N int
	// Sources is the number of source agents (default 1). The paper's
	// framework allows a constant number of sources that agree on the
	// correct opinion.
	Sources int
	// Correct is the opinion held by the sources (default OpinionOne).
	Correct byte
	// Protocol is the non-source update rule. Required.
	Protocol Protocol
	// Init chooses the adversarial starting opinions. Required.
	Init Initializer
	// Engine selects the round executor (default fast).
	Engine EngineKind
	// Parallelism is the number of shards an agent engine (fast or
	// exact) splits each round across, one worker goroutine each
	// (0 or 1 = one shard, run inline). Results are bit-identical at
	// every value: every agent owns its RNG stream and shards write
	// disjoint slices.
	Parallelism int
	// Seed is the root seed; all randomness derives from it.
	Seed uint64
	// MaxRounds caps the simulation length. Required (> 0).
	MaxRounds int
	// AbsorbWindow is the number of consecutive all-correct rounds after
	// which the run is declared absorbed (default 2: under FET, two
	// consecutive all-correct rounds force ties forever, so the state is
	// provably absorbing).
	AbsorbWindow int
	// RunToEnd, when set, keeps simulating after absorption so the caller
	// can verify stability over the full horizon.
	RunToEnd bool
	// RecordTrajectory stores x_t for every executed round in the result.
	RecordTrajectory bool
	// Memory is the law every non-source agent's stored memory is drawn
	// from before round 0 (default MemoryFresh).
	Memory Memory
	// Observers receive a typed RoundEvent after every executed round, in
	// order. An observer returning ErrStopRun stops the run early
	// (reported as StoppedEarly, not converged unless already absorbed);
	// any other error aborts the run.
	Observers []Observer
	// Topology selects the observation topology: who each agent can
	// observe (nil = topo.Complete(), the paper's uniform mixing). On a
	// non-complete topology every agent engine samples neighbor opinions
	// literally through the graph (the tabulated-binomial fast path is a
	// uniform-mixing identity), and EngineAggregate is rejected — the
	// occupancy update law is exact only under uniform mixing.
	Topology topo.Topology
	// NoiseEps, when positive, flips every observed opinion bit
	// independently with probability NoiseEps before the agent sees it —
	// the noisy-communication model of Feinerman et al. (2017) and
	// Boczkowski et al. (2018), referenced in the paper's related work.
	// Must lie in [0, 1/2).
	NoiseEps float64
	// FlipCorrectAt, when positive, flips the correct opinion at the
	// start of that round: the environment changes mid-run and the
	// sources switch sides. Convergence is then judged against the new
	// correct value (the paper's §1.2 remark: "the adversary may initially
	// set a different opinion to the source, but then the value of the
	// correct bit would change").
	FlipCorrectAt int
}

// MemoryLaw names how the agents' stored memories are drawn before
// round 0. Self-stabilization demands convergence from every initial
// configuration, and a trend agent's stored count is part of it.
type MemoryLaw uint8

// Memory laws.
const (
	// MemoryFresh leaves every agent as its protocol constructs it.
	MemoryFresh MemoryLaw = iota
	// MemoryUniform calls CorruptState on every agent implementing
	// StateCorruptible: the worst-case, arbitrary memory. The trend
	// protocols draw their count uniformly from {0, …, m}.
	MemoryUniform
	// MemoryBinomial seeds every agent's stored count with an
	// independent Binomial(m, X0) draw from its own stream, m the
	// protocol's single declared sample size; agents that are not
	// TrendSeeders fail the run with a MemoryError. With opinions at fraction x1 it places the chain of
	// Observation 1 at the grid point (x_t, x_{t+1}) = (X0, x1).
	MemoryBinomial
)

// Memory is the initial-memory part of a configuration: a law and, for
// MemoryBinomial, its success probability X0 (zero otherwise).
type Memory struct {
	Law MemoryLaw
	X0  float64
}

// MemoryError reports a Config.Memory that the run cannot realise.
type MemoryError string

func (e MemoryError) Error() string { return "sim: Memory: " + string(e) }

// errNotSeeder rejects MemoryBinomial for a protocol whose agents cannot
// take a seeded count, which would otherwise silently start fresh.
func errNotSeeder(p Protocol) error {
	return MemoryError(fmt.Sprintf("MemoryBinomial needs TrendSeeder agents, protocol %q has none", p.Name()))
}

// Result reports the outcome of a run.
type Result struct {
	// Converged reports whether the absorption criterion was met.
	Converged bool
	// Round is the first round of the final all-correct run (the paper's
	// t_con) when Converged, else −1.
	Round int
	// Rounds is the number of rounds actually executed.
	Rounds int
	// FinalX is the fraction of 1-opinions after the last executed round.
	FinalX float64
	// Trajectory holds x_t for t = 0..Rounds when requested (x_0 is the
	// initial configuration).
	Trajectory []float64
	// StoppedEarly reports that an Observer requested a stop.
	StoppedEarly bool
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.N < 2 {
		return cfg, fmt.Errorf("sim: N = %d, need at least 2 agents", cfg.N)
	}
	if cfg.Sources == 0 {
		cfg.Sources = 1
	}
	if cfg.Sources < 1 || cfg.Sources >= cfg.N {
		return cfg, fmt.Errorf("sim: Sources = %d out of range [1, N)", cfg.Sources)
	}
	if cfg.Correct > 1 {
		return cfg, fmt.Errorf("sim: Correct = %d, want 0 or 1", cfg.Correct)
	}
	if cfg.Protocol == nil {
		return cfg, fmt.Errorf("sim: Protocol is required")
	}
	if cfg.Init == nil {
		return cfg, fmt.Errorf("sim: Init is required")
	}
	if cfg.MaxRounds <= 0 {
		return cfg, fmt.Errorf("sim: MaxRounds = %d, want > 0", cfg.MaxRounds)
	}
	if cfg.AbsorbWindow == 0 {
		cfg.AbsorbWindow = 2
	}
	if cfg.AbsorbWindow < 1 {
		return cfg, fmt.Errorf("sim: AbsorbWindow = %d, want ≥ 1", cfg.AbsorbWindow)
	}
	if cfg.Parallelism < 0 {
		return cfg, fmt.Errorf("sim: Parallelism = %d, want ≥ 0", cfg.Parallelism)
	}
	if cfg.NoiseEps < 0 || cfg.NoiseEps >= 0.5 {
		return cfg, fmt.Errorf("sim: NoiseEps = %v, want in [0, 1/2)", cfg.NoiseEps)
	}
	if !topo.IsComplete(cfg.Topology) {
		if err := cfg.Topology.Validate(cfg.N); err != nil {
			return cfg, fmt.Errorf("sim: %v", err)
		}
	}
	if err := cfg.Engine.CheckTopology(cfg.Topology); err != nil {
		return cfg, fmt.Errorf("sim: %v", err)
	}
	if cfg.FlipCorrectAt < 0 {
		return cfg, fmt.Errorf("sim: FlipCorrectAt = %d, want ≥ 0", cfg.FlipCorrectAt)
	}
	switch mem := cfg.Memory; {
	case mem.Law > MemoryBinomial:
		return cfg, MemoryError(fmt.Sprintf("unknown law %d", mem.Law))
	case !(mem.X0 >= 0 && mem.X0 <= 1):
		return cfg, MemoryError(fmt.Sprintf("X0 = %v, want in [0, 1]", mem.X0))
	case mem.Law != MemoryBinomial && mem.X0 != 0:
		return cfg, MemoryError(fmt.Sprintf("X0 = %v is read only by MemoryBinomial", mem.X0))
	case mem.Law == MemoryBinomial:
		if _, ok := singleSampleSize(cfg.Protocol.SampleSizes()); !ok {
			return cfg, MemoryError(fmt.Sprintf("MemoryBinomial needs one declared sample size, protocol %q has %v", cfg.Protocol.Name(), cfg.Protocol.SampleSizes()))
		}
	}
	return cfg, nil
}

// Validate reports whether the configuration would be accepted by Run,
// without executing anything. It lets batch runners reject a bad
// replicate template up front instead of once per replicate.
func (c *Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

// Run executes the simulation described by cfg and returns its result.
// It is RunContext with a background context.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation described by cfg, honoring ctx
// inside the round loop: cancellation or deadline expiry is checked
// between rounds, and the run returns ctx.Err() within one round of the
// context ending.
//
// RunContext is a thin orchestrator: it owns the round loop and all
// bookkeeping (absorption detection, observer dispatch, mid-run
// environment flips, early stops) while the population itself is
// advanced by a roundExecutor selected via Config.Engine. All executors
// implement the same synchronous-round semantics, so the bookkeeping is
// engine-independent.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	exec, err := newRoundExecutor(&c)
	if err != nil {
		return Result{}, err
	}
	defer exec.close()
	return runLoop(ctx, &c, exec)
}

// runLoop is the engine-independent round loop shared by RunContext and
// the pooled Pool.RunContext: c must already carry defaults and exec must
// be populated for this replicate. It owns all protocol-independent
// bookkeeping — absorption detection, mid-run environment flips, observer
// dispatch, early stops. The caller owns the executor's lifecycle (close
// or pool return).
func runLoop(ctx context.Context, c *Config, exec roundExecutor) (Result, error) {
	n := c.N
	correct := c.Correct
	observers := c.Observers
	// Trajectory recording is an Observer instance; x_0 precedes the
	// first event, so the orchestrator seeds it here.
	var rec *TrajectoryRecorder
	if c.RecordTrajectory {
		rec = &TrajectoryRecorder{Xs: make([]float64, 0, c.MaxRounds+1)}
		rec.Xs = append(rec.Xs, float64(exec.Ones())/float64(n))
		observers = append(append(make([]Observer, 0, len(observers)+1), observers...), rec)
	}

	// correctRun counts consecutive all-correct rounds; absorbedAt is the
	// first round of the final all-correct run once it reaches the absorb
	// window, −1 while the run is not absorbed.
	correctRun := 0
	if exec.Ones() == int(correct)*n {
		correctRun = 1
	}
	absorbedAt := -1
	if correctRun >= c.AbsorbWindow {
		absorbedAt = 0
	}
	stopped := false

	round := 0
	for ; round < c.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if c.FlipCorrectAt > 0 && round == c.FlipCorrectAt {
			// The environment changes: the sources switch to the new
			// correct opinion and convergence is judged against it.
			correct = 1 - correct
			correctRun, absorbedAt = 0, -1
		}
		if err := exec.Step(correct); err != nil {
			return Result{}, err
		}
		ones := exec.Ones()
		if ones == int(correct)*n {
			correctRun++
		} else {
			correctRun, absorbedAt = 0, -1
		}
		if absorbedAt < 0 && correctRun >= c.AbsorbWindow {
			absorbedAt = round + 2 - correctRun
		}

		ev := RoundEvent{Round: round, X: float64(ones) / float64(n), Ones: ones, Correct: correct, Absorbed: absorbedAt >= 0}
		for _, obs := range observers {
			if err := obs.ObserveRound(ev); err != nil {
				if !errors.Is(err, ErrStopRun) {
					return Result{}, err
				}
				// A stop request still lets the remaining observers
				// (including the trajectory recorder) see the event.
				stopped = true
			}
		}
		pendingFlip := c.FlipCorrectAt > 0 && round < c.FlipCorrectAt
		if stopped || absorbedAt >= 0 && !c.RunToEnd && !pendingFlip {
			round++
			break
		}
	}

	res := Result{
		Converged:    absorbedAt >= 0,
		Round:        absorbedAt,
		Rounds:       round,
		FinalX:       float64(exec.Ones()) / float64(n),
		StoppedEarly: stopped,
	}
	if rec != nil {
		res.Trajectory = rec.Xs
	}
	return res, nil
}
