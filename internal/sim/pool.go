package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"passivespread/internal/rng"
	"passivespread/internal/topo"
)

// poolKey is an executor's reuse shape: two configs with equal keys can
// share an executor via populate. Everything else a replicate varies —
// seed, correct opinion, initializer, noise, corruption hooks, round
// caps, observers — is (re)applied per lease by populate and the
// orchestrator. lanes is the lockstep batch width (0 for sequential
// executors): lockstep buffers are sized n·lanes, so batches of
// different widths are different shapes.
type poolKey struct {
	engine                    EngineKind
	n, sources, shards, lanes int
	protocol                  string
	topology                  string
}

// Pool reuses agent executors — and with them every O(n) replicate
// buffer: the packed opinion bitsets, the initializer scratch, the
// per-agent RNG states, resettable agent objects, the observation
// graph's adjacency and its per-worker View row buffers, and the
// parallel engine's persistent shard workers — across replicates that
// share a shape. Batch runners (Study, and Sweep through its per-cell
// Studies) lease an executor per replicate instead of rebuilding one,
// which removes the per-replicate allocation storm at large n while
// keeping results bit-identical: populate replays exactly the RNG
// consumption of a fresh construction.
//
// The Pool also owns the read-only state its executors can share: the
// graph observer's stream-jump ladders, built once per (round jump,
// depth) and handed to every executor leased concurrently, so running
// W sparse replicates at once costs one ladder, not W.
//
// A Pool is safe for concurrent use. Call Release when a batch
// finishes: it drops the idle executors and stops their persistent
// workers (leaked otherwise for EngineAgentParallel). The Pool remains
// usable after Release.
type Pool struct {
	mu       sync.Mutex
	free     map[poolKey][]*agentExecutor
	freeLock map[poolKey][]*lockstepExecutor
	ladders  map[ladderKey]*rng.JumpLadder
}

// ladderKey is a jump ladder's shape: the whole-round step count of its
// base rung and its number of rungs.
type ladderKey struct{ steps, depth int }

// NewPool returns an empty executor pool. Its maps are allocated on
// first insert, so a pool that never leases (a Study that is built but
// not run) costs one small allocation.
func NewPool() *Pool { return &Pool{} }

// jumpLadder returns the shared ladder over a steps-output round jump
// for replicates of at most maxRounds rounds, building it on first use.
// A per-agent deferred debt never exceeds the rounds run, so
// bits.Len(maxRounds) rungs (capped at jumpLadderDepth) settle every
// debt in popcount applications; the depth changes no stream byte,
// since JumpLadder.Flush is exact past its top rung. A nil *Pool builds
// a private ladder.
func (p *Pool) jumpLadder(steps, maxRounds int) *rng.JumpLadder {
	depth := min(jumpLadderDepth, max(1, bits.Len(uint(maxRounds))))
	if p == nil {
		return rng.NewJumpLadder(rng.NewStepJump(steps), depth)
	}
	key := ladderKey{steps, depth}
	// Built under the lock: a concurrent lease of the same shape waits
	// for this ladder rather than building a second one.
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.ladders[key]
	if l == nil {
		l = rng.NewJumpLadder(rng.NewStepJump(steps), depth)
		if p.ladders == nil {
			p.ladders = make(map[ladderKey]*rng.JumpLadder)
		}
		p.ladders[key] = l
	}
	return l
}

// RunContext is RunContext with executor reuse: it leases a pooled
// executor matching cfg's shape (building one on a miss), runs the
// replicate, and returns the executor to the pool. Results are
// bit-identical to the unpooled path. A nil *Pool degrades to plain
// RunContext. Engines without per-agent state (EngineAggregate,
// EngineAggregateSparse) run unpooled — their setup is O(ℓ), not O(n).
func (p *Pool) RunContext(ctx context.Context, cfg Config) (Result, error) {
	if p == nil {
		return RunContext(ctx, cfg)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if c.Engine == EngineAggregate || c.Engine == EngineAggregateSparse {
		exec, err := newAggregateExecutor(&c)
		if err != nil {
			return Result{}, err
		}
		defer exec.close()
		return runLoop(ctx, &c, exec)
	}

	key := poolKey{
		engine:   c.Engine,
		n:        c.N,
		sources:  c.Sources,
		protocol: c.Protocol.Name(),
		topology: topo.DisplayName(c.Topology),
		shards:   1,
	}
	if c.Engine == EngineAgentParallel {
		key.shards = resolvedWorkers(&c)
	}

	e := p.get(key)
	if e == nil {
		e, err = newAgentExecutor(&c, p)
	} else {
		err = e.populate(&c)
	}
	if err != nil {
		if e != nil {
			e.close()
		}
		return Result{}, err
	}
	res, runErr := runLoop(ctx, &c, e)
	e.cfg = nil // do not retain the lease's Config across idle periods
	p.put(key, e)
	return res, runErr
}

// RunLockstep runs len(lanes) replicates of cfg's shape — lane l seeded
// with lanes[l].Seed and observed by lanes[l].Observers — writing each
// lane's outcome to out[l]. Outcomes are bit-identical to running every
// lane alone through RunContext: when the configuration supports the
// lockstep executor (see lockstepSupported) the whole batch advances
// word-parallel through a pooled transposed executor; otherwise, and for
// single-lane batches, each lane falls back to the sequential path.
// cfg.Seed and cfg.Observers are ignored — both are per-lane.
//
// A non-nil return means the batch itself was rejected (bad
// configuration, mismatched slice lengths, too many lanes) and no lane
// ran. Per-lane failures — context cancellation, observer errors — are
// reported in out[l].Err, and lanes already finished keep their
// results. A nil *Pool degrades to unpooled sequential runs.
func (p *Pool) RunLockstep(ctx context.Context, cfg Config, lanes []LaneRun, out []LaneResult) error {
	if len(out) != len(lanes) {
		return fmt.Errorf("sim: RunLockstep with %d lanes but %d result slots", len(lanes), len(out))
	}
	if len(lanes) > maxLockstepLanes {
		return fmt.Errorf("sim: RunLockstep with %d lanes, max %d", len(lanes), maxLockstepLanes)
	}
	if len(lanes) == 0 {
		return nil
	}
	cfg.Observers = nil
	c, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if p == nil || len(lanes) == 1 || !lockstepSupported(&c) {
		for l := range lanes {
			lc := cfg
			lc.Seed = lanes[l].Seed
			lc.Observers = lanes[l].Observers
			var res Result
			var runErr error
			if p == nil {
				res, runErr = RunContext(ctx, lc)
			} else {
				res, runErr = p.RunContext(ctx, lc)
			}
			out[l] = LaneResult{Result: res, Err: runErr}
		}
		return nil
	}

	key := poolKey{
		engine:   c.Engine,
		n:        c.N,
		sources:  c.Sources,
		protocol: c.Protocol.Name(),
		topology: topo.DisplayName(c.Topology),
		shards:   1,
		lanes:    len(lanes),
	}
	e := p.getLock(key)
	if e == nil {
		e = newLockstepExecutor(&c, len(lanes))
	}
	if err := e.populate(&c, lanes); err != nil {
		return err
	}
	runLockstepLoop(ctx, &c, e, lanes, out)
	e.cfg = nil // do not retain the lease's Config across idle periods
	p.putLock(key, e)
	return nil
}

func (p *Pool) get(key poolKey) *agentExecutor {
	p.mu.Lock()
	defer p.mu.Unlock()
	frees := p.free[key]
	if len(frees) == 0 {
		return nil
	}
	e := frees[len(frees)-1]
	p.free[key] = frees[:len(frees)-1]
	return e
}

func (p *Pool) put(key poolKey, e *agentExecutor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[poolKey][]*agentExecutor)
	}
	p.free[key] = append(p.free[key], e)
}

func (p *Pool) getLock(key poolKey) *lockstepExecutor {
	p.mu.Lock()
	defer p.mu.Unlock()
	frees := p.freeLock[key]
	if len(frees) == 0 {
		return nil
	}
	e := frees[len(frees)-1]
	p.freeLock[key] = frees[:len(frees)-1]
	return e
}

func (p *Pool) putLock(key poolKey, e *lockstepExecutor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freeLock == nil {
		p.freeLock = make(map[poolKey][]*lockstepExecutor)
	}
	p.freeLock[key] = append(p.freeLock[key], e)
}

// Release closes and drops every idle executor and the shared jump
// ladders. Executors leased at call time are unaffected — they keep
// their ladder, return to the pool when their replicate finishes and
// are freed by the next Release.
func (p *Pool) Release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	//fet:allow detrand: shutdown drain; executors are independent, close order is unobservable
	for key, frees := range p.free {
		for _, e := range frees {
			e.close()
		}
		delete(p.free, key)
	}
	//fet:allow detrand: shutdown drain; dropping references has no observable order
	for key := range p.freeLock {
		// Lockstep executors own no background resources — dropping the
		// references releases their buffers.
		delete(p.freeLock, key)
	}
	clear(p.ladders)
}
