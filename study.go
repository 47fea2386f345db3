package passivespread

import (
	"context"
	"fmt"

	"passivespread/internal/rng"
	"passivespread/internal/stats"
)

// StudySpec describes a batch of replicate simulations: R independent
// runs of one configuration, differing only in their derived seeds.
type StudySpec struct {
	// Replicates is the number of independent runs (required, ≥ 1).
	Replicates int
	// Workers bounds the replicate worker pool (0 = GOMAXPROCS). The
	// worker count affects scheduling only: replicate seeds derive from
	// (root seed, replicate index) alone, so results are bit-identical at
	// every worker count.
	Workers int
	// Batch is accepted for compatibility; it has no effect: every
	// replicate runs as its own task. Values outside 0…MaxBatch are
	// still rejected.
	Batch int
	// Options is the per-replicate template for the common case (FET
	// under the worst-case defaults). Options.Seed is the study's root
	// seed: replicate i runs with StreamSeed(Seed, i).
	Options Options
	// Config, when non-nil, bypasses Options entirely and uses this
	// sim-level configuration as the replicate template — full control
	// over protocol, initializer, noise, and engine (except
	// EngineMarkovChain, which only the Options form supports).
	// Config.Seed is the root seed. Config.Observers is allowed only for
	// a single replicate: observers are stateful and replicates run
	// concurrently, so batches must use Observe instead.
	Config *Config
	// Observe, when non-nil, is called once per replicate (from the
	// replicate's worker goroutine) and returns the observers attached to
	// that replicate's run, so per-round visibility composes with the
	// concurrent worker pool: each replicate gets its own instances.
	// Returning nil attaches none. The Study serializes the calls, so
	// Observe itself may update shared bookkeeping; the observers it
	// returns run concurrently and must not mutate shared state without
	// their own synchronization.
	Observe func(replicate int) []Observer
}

// MaxBatch is the largest StudySpec.Batch, SweepSpec.Batch and
// ServeConfig.Batch value accepted. Batch is accepted for
// compatibility; it has no effect.
const MaxBatch = 64

// StreamSeed exposes the repository's SplitMix64 stream-derivation rule:
// replicate i of a Study with root seed s runs with StreamSeed(s, i).
// The derived value identifies a replicate's randomness (RunResult.Seed
// reports it) and lets external tooling pre-compute or verify replicate
// seeds. Note that re-running NewStudy with a derived value as the root
// is NOT the same replicate (the single replicate would derive again):
// to reproduce replicate i exactly, re-run the same spec — any worker
// count — and read Results[i].
func StreamSeed(seed, stream uint64) uint64 { return rng.StreamSeed(seed, stream) }

// RunResult is one replicate's outcome, as streamed by Study.Stream.
type RunResult struct {
	// Replicate is the replicate index in [0, Replicates).
	Replicate int
	// Seed is the derived seed the replicate ran with.
	Seed uint64
	// Result is the simulation outcome (zero when Err is non-nil).
	Result Result
	// Err is the replicate's failure, if any. A cancelled context
	// surfaces here as ctx.Err() for replicates interrupted mid-run.
	Err error
}

// ConvergenceStats aggregates replicate convergence outcomes (success
// rate plus a full Summary of the convergence times).
type ConvergenceStats = stats.Convergence

// Summary holds descriptive statistics of a sample (mean, quantiles,
// extremes).
type Summary = stats.Summary

// StudyReport is the aggregate output of Study.Run.
type StudyReport struct {
	// Convergence aggregates t_con across replicates: success rate, and
	// mean/median/quantiles of the convergence times with non-converged
	// replicates censored at their executed round count.
	Convergence ConvergenceStats
	// Results holds the per-replicate outcomes ordered by replicate
	// index — byte-identical for any StudySpec.Workers value.
	Results []RunResult
}

// Study is a prepared batch of replicate simulations: a one-cell grid
// whose replicates the shared scheduler hands out. Construct with
// NewStudy; run with Run (aggregate report) or Stream (results as they
// finish).
type Study struct {
	replicates int
	workers    int
	cell       cellExec
}

// NewStudy validates spec and returns a runnable Study. Validation
// failures wrap ErrInvalidOptions.
func NewStudy(spec StudySpec) (*Study, error) {
	if spec.Replicates < 1 {
		return nil, fmt.Errorf("%w: Replicates: %d, want ≥ 1", ErrInvalidOptions, spec.Replicates)
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers: %d, want ≥ 0", ErrInvalidOptions, spec.Workers)
	}
	if spec.Batch < 0 || spec.Batch > MaxBatch {
		return nil, fmt.Errorf("%w: Batch: %d, want 0…%d", ErrInvalidOptions, spec.Batch, MaxBatch)
	}
	cell, err := newCell(&spec, nil)
	if err != nil {
		return nil, err
	}
	return &Study{replicates: spec.Replicates, workers: poolWorkers(spec.Workers, spec.Replicates), cell: cell}, nil
}

// Replicates returns the number of replicates the study will run.
func (s *Study) Replicates() int { return s.replicates }

// Workers returns the resolved worker-pool size.
func (s *Study) Workers() int { return s.workers }

// Stream starts the study and returns a channel delivering each
// replicate's RunResult as it finishes (completion order; per-replicate
// content is deterministic regardless of order). The channel is closed
// once every replicate has been delivered or the context has ended;
// after cancellation, undelivered replicates are dropped and in-flight
// ones finish within one simulated round. The caller must drain the
// channel or cancel ctx, or the worker pool leaks.
func (s *Study) Stream(ctx context.Context) <-chan RunResult {
	out := make(chan RunResult)
	go func() {
		defer close(out)
		schedule(ctx, s.workers, s.replicates, []cellExec{s.cell}, func(_ int, r RunResult) {
			select {
			case out <- r:
			case <-ctx.Done():
			}
		})
		// All leases are back: free the pooled executors.
		s.cell.release()
	}()
	return out
}

// Run executes every replicate across the worker pool and aggregates the
// convergence statistics. The report is bit-identical for any worker
// count on a fixed root seed. Run returns ctx.Err() if the context ends
// before all replicates finish, and the first replicate error (by
// replicate index) otherwise.
func (s *Study) Run(ctx context.Context) (*StudyReport, error) {
	results, err := s.collect(ctx, nil)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("replicate %d: %w", i, r.Err)
		}
	}
	times, converged := censorConvergence(results)
	return &StudyReport{
		Convergence: stats.SummarizeConvergence(times, converged),
		Results:     results,
	}, nil
}

// collect drains Stream into replicate order, calling progress (when
// non-nil) after each delivered result. It fails only when replicates
// are missing: with ctx.Err() once the context has ended.
func (s *Study) collect(ctx context.Context, progress func(done, total int)) ([]RunResult, error) {
	results := make([]RunResult, s.replicates)
	done := 0
	for r := range s.Stream(ctx) {
		results[r.Replicate] = r
		done++
		if progress != nil {
			progress(done, s.replicates)
		}
	}
	if done < s.replicates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("passivespread: study lost %d of %d replicates", s.replicates-done, s.replicates)
	}
	return results, nil
}

// censorConvergence maps error-free replicate results onto the t_con
// sample aggregated by stats.SummarizeConvergence: a converged
// replicate contributes its convergence round, a non-converged one is
// censored at its executed round count. Study and Sweep both aggregate
// through this single copy of the convention.
func censorConvergence(results []RunResult) (times []float64, converged []bool) {
	times = make([]float64, len(results))
	converged = make([]bool, len(results))
	for i, r := range results {
		if r.Result.Converged {
			times[i] = float64(r.Result.Round)
			converged[i] = true
		} else {
			times[i] = float64(r.Result.Rounds)
		}
	}
	return times, converged
}

// runSingle backs the Disseminate/Run compatibility wrappers: replicate 0
// executed inline, with its error unwrapped.
func (s *Study) runSingle(ctx context.Context) (Result, error) {
	defer s.cell.release()
	r := s.cell.run(ctx, 0)
	return r.Result, r.Err
}
