package passivespread

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"passivespread/internal/adversary"
	"passivespread/internal/markov"
	"passivespread/internal/rng"
	"passivespread/internal/sched"
	"passivespread/internal/sim"
	"passivespread/internal/topo"
)

// cellExec is the executable form of one cell: the seeded replicates of
// one configuration. A Study runs one cell, a Sweep one per grid cell,
// and fetserve one per answered key; newCell is the only place that
// decides which form a cell takes. Replicate i of a cell with root seed
// s runs with StreamSeed(s, i), whichever task and worker run it.
type cellExec interface {
	// run executes replicate i.
	run(ctx context.Context, i int) RunResult
	// release frees the cell's idle pooled executors (and stops their
	// persistent shard workers). The cell stays runnable.
	release()
}

// newCell validates a cell's template and returns its executor:
//   - run != nil: the ScenarioRunner form, with its ScenarioParams read
//     from spec.Options;
//   - spec.Config != nil: the agent form over that sim-level template;
//   - spec.Options on EngineMarkovChain: the chain form;
//   - any other spec.Options: the agent form over Options.config().
//
// Failures wrap ErrInvalidOptions.
func newCell(spec *StudySpec, run ScenarioRunner) (cellExec, error) {
	if run != nil {
		o := spec.Options
		return &runnerCell{runner: run, params: ScenarioParams{
			N: o.N, Ell: o.Ell, Sources: o.Sources, MaxRounds: o.MaxRounds, Init: o.Init, Seed: o.Seed,
		}}, nil
	}
	if cfg := spec.Config; cfg != nil {
		if cfg.Engine == EngineMarkovChain {
			return nil, fmt.Errorf("%w: Config: EngineMarkovChain requires the Options form of StudySpec", ErrInvalidOptions)
		}
		if len(cfg.Observers) > 0 && spec.Replicates > 1 {
			return nil, fmt.Errorf("%w: Config.Observers: shared state; use StudySpec.Observe for %d replicates",
				ErrInvalidOptions, spec.Replicates)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w: Config: %v", ErrInvalidOptions, err)
		}
		return &agentCell{cfg: *cfg, observe: spec.Observe}, nil
	}
	if spec.Options.Engine == EngineMarkovChain {
		if spec.Observe != nil {
			return nil, fmt.Errorf("%w: Observe: EngineMarkovChain does not deliver round events", ErrInvalidOptions)
		}
		return newChainCell(spec.Options)
	}
	cfg, err := spec.Options.config()
	if err != nil {
		return nil, err
	}
	return &agentCell{cfg: cfg, observe: spec.Observe}, nil
}

// checkCell is the one admissibility rule for a cell: may engine run
// scenario sc on topology t (nil = complete), the topology the cell
// actually runs on after any scenario pin? The reduced engines are exact
// only in their own regime:
//   - a custom runner schedules itself under uniform mixing and ignores
//     both the engine and the topology, so t must be complete;
//   - the Markov chain needs a chainCompatible scenario and t complete;
//   - the sim engines follow EngineKind.CheckTopology.
//
// Options.validate, NewSweep's cells and fetserve's Resolve all call
// it; each adds only its own context. Failures wrap ErrInvalidOptions.
// It allocates only on failure.
func checkCell(engine EngineKind, sc Scenario, t Topology) error {
	switch {
	case sc.Run != nil:
		if !topo.IsComplete(t) {
			return fmt.Errorf("%w: Topology: scenario %q has its own scheduler and runs under uniform mixing only, not %q",
				ErrInvalidOptions, sc.Name, t.Name())
		}
	case engine == EngineMarkovChain:
		if !sc.chainCompatible() {
			return fmt.Errorf("%w: Engine: scenario %q is not expressible on the Markov-chain engine", ErrInvalidOptions, sc.Name)
		}
		if !topo.IsComplete(t) {
			return fmt.Errorf("%w: Engine: %s is exact only under uniform mixing; topology %q needs an agent engine",
				ErrInvalidOptions, EngineName(engine), t.Name())
		}
	default:
		if err := engine.CheckTopology(t); err != nil {
			return fmt.Errorf("%w: Engine: %v", ErrInvalidOptions, err)
		}
	}
	return nil
}

// poolWorkers resolves a requested worker count (0 = GOMAXPROCS)
// against the number of units there are to hand out, keeping at least
// one worker so an empty run still has a well-formed (idle) pool.
func poolWorkers(requested, units int) int {
	if requested == 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, units))
}

// schedule runs every replicate of cells through one sched.Run pool of
// workers, one replicate per task, handed out cell by cell in slice
// order with each cell's replicates ascending. emit receives each
// result on the worker that ran it, with the cell's position in cells.
// A Study is the one-cell case.
func schedule(ctx context.Context, workers, replicates int, cells []cellExec, emit func(cell int, r RunResult)) {
	sched.Run(ctx, workers, len(cells)*replicates, func(i int) {
		k := i / replicates
		emit(k, cells[k].run(ctx, i%replicates))
	})
}

// agentCell runs a cell on the agent-level engines, one replicate per
// task through the executor pool.
type agentCell struct {
	cfg       Config // the replicate template; cfg.Seed is the root seed
	observe   func(replicate int) []Observer
	observeMu sync.Mutex // serializes observe calls across workers

	// pool leases per-replicate round executors: every O(n) buffer (the
	// packed opinion bitsets, per-agent RNG states and stored counts,
	// resettable agent objects, topology adjacency and View scratch) is
	// reused across the cell's replicates instead of reallocated, with
	// bit-identical results. Idle executors are dropped by release.
	pool sim.Pool
}

func (c *agentCell) release() { c.pool.Release() }

// observers calls the Observe hook for replicate i, one call at a time.
func (c *agentCell) observers(i int) []Observer {
	c.observeMu.Lock()
	defer c.observeMu.Unlock()
	return c.observe(i)
}

// run executes replicate i with seed StreamSeed(root, i) and fresh
// observer instances from the template slice plus Observe(i).
func (c *agentCell) run(ctx context.Context, i int) RunResult {
	cfg := c.cfg
	cfg.Seed = rng.StreamSeed(c.cfg.Seed, uint64(i))
	if c.observe != nil {
		// Fresh observer instances per replicate: the template's slice
		// is never shared across concurrently running replicates.
		cfg.Observers = append(append([]Observer(nil), cfg.Observers...), c.observers(i)...)
	}
	rr := RunResult{Replicate: i, Seed: cfg.Seed}
	rr.Result, rr.Err = c.pool.RunContext(ctx, cfg)
	return rr
}

// chainCell runs a cell on the EngineMarkovChain pseudo-engine: one
// (K_t, K_{t+1}) chain per replicate, started at grid point (x0, x1).
type chainCell struct {
	n, ell, maxRounds int
	x0, x1            float64
	trajectory        bool
	seed              uint64 // the root seed
}

// newChainCell derives the Markov-chain replicate parameters from opts.
// The chain models one source and is opinion-symmetric, so CorrectZero
// has no observable effect and results are reported as if the correct
// opinion were 1.
func newChainCell(opts Options) (*chainCell, error) {
	ell, maxRounds, err := opts.derive()
	if err != nil {
		return nil, err
	}
	if opts.Sources > 1 {
		return nil, fmt.Errorf("%w: Sources: EngineMarkovChain models exactly one source, got %d",
			ErrInvalidOptions, opts.Sources)
	}
	correct := OpinionOne
	if opts.CorrectZero {
		correct = OpinionZero
	}
	x0, x1, err := chainStart(opts.Init, correct)
	if err != nil {
		return nil, err
	}
	return &chainCell{n: opts.N, ell: ell, maxRounds: maxRounds, x0: x0, x1: x1,
		trajectory: opts.RecordTrajectory, seed: opts.Seed}, nil
}

// chainStart maps an Options initializer onto the chain's grid start
// (x_t, x_{t+1}), expressed as fractions of CORRECT opinions (the chain
// reports as if the correct opinion were 1, so a Fraction of 1-opinions
// mirrors when the correct opinion is 0). AllWrong/AllCorrect carry
// their own Correct field: relative to the study's correct opinion,
// AllWrong(correct) starts everyone wrong but AllWrong(1−correct)
// starts everyone right. The chain carries no per-agent state, so only
// initializers with a deterministic opinion fraction are supported.
func chainStart(init Initializer, correct byte) (x0, x1 float64, err error) {
	switch v := init.(type) {
	case nil:
		return 0, 0, nil // the all-wrong worst case
	case adversary.AllWrong:
		if v.Correct != correct {
			// "Wrong" relative to the other opinion = everyone correct.
			return 1, 1, nil
		}
		return 0, 0, nil
	case adversary.AllCorrect:
		if v.Correct != correct {
			return 0, 0, nil
		}
		return 1, 1, nil
	case adversary.Fraction:
		x := v.X
		if correct == OpinionZero {
			x = 1 - x
		}
		return x, x, nil
	default:
		return 0, 0, fmt.Errorf("%w: Init: initializer %q is not supported by EngineMarkovChain",
			ErrInvalidOptions, init.Name())
	}
}

func (c *chainCell) release() {}

// run advances replicate i's chain to absorption and reports it in the
// common Result shape. The context is checked after every chain step.
func (c *chainCell) run(ctx context.Context, i int) RunResult {
	rr := RunResult{Replicate: i, Seed: rng.StreamSeed(c.seed, uint64(i))}
	ch := markov.New(c.n, c.ell, rr.Seed)
	start := ch.StateAt(c.x0, c.x1)
	cres := ch.Run(markov.RunConfig{
		Start:            start,
		MaxRounds:        c.maxRounds,
		RecordTrajectory: c.trajectory,
		Stop:             func(int, markov.State) bool { return ctx.Err() != nil },
	})
	if err := ctx.Err(); err != nil {
		rr.Err = err
		return rr
	}
	rr.Result = Result{
		Converged: cres.Converged,
		Round:     cres.Round,
		Rounds:    cres.Rounds,
		FinalX:    float64(cres.Final.K1) / float64(c.n),
	}
	if c.trajectory {
		// Match the agent engines' convention: the trajectory starts at
		// the initial fraction, then one entry per executed round.
		rr.Result.Trajectory = append([]float64{float64(start.K1) / float64(c.n)}, cres.Trajectory...)
	}
	return rr
}

// runnerCell runs a custom-runner scenario's cell: one ScenarioRunner
// call per replicate, with params.Seed reseeded per replicate.
type runnerCell struct {
	runner ScenarioRunner
	params ScenarioParams // Seed is the root seed
}

func (c *runnerCell) release() {}

func (c *runnerCell) run(ctx context.Context, i int) RunResult {
	p := c.params
	p.Seed = rng.StreamSeed(c.params.Seed, uint64(i))
	rr := RunResult{Replicate: i, Seed: p.Seed}
	rr.Result, rr.Err = c.runner(ctx, p)
	return rr
}
