package sim

import (
	"context"
	"sync"

	"passivespread/internal/topo"
)

// poolKey is an executor's reuse shape: two configs with equal keys can
// share an executor via populate. Everything else a replicate varies —
// seed, correct opinion, initializer, noise, memory law, round
// caps, observers — is (re)applied per lease by populate and the
// orchestrator. noisyGraph separates graph configs with NoiseEps > 0,
// whose draws the graph round cannot replay, so within one key the
// choice between the trend executor and the generic agentExecutor is
// fixed.
type poolKey struct {
	engine             EngineKind
	n, sources, shards int
	protocol           string
	topology           string
	noisyGraph         bool
}

// Pool reuses agent executors — and with them every O(n) replicate
// buffer: the packed opinion bitsets, the initializer scratch, the
// per-agent RNG states, resettable agent objects, the observation
// graph's adjacency and its per-worker View row buffers, and the
// persistent shard workers of a sharded run — across replicates that
// share a shape. Batch runners (Study, and Sweep through its per-cell
// Studies) lease an executor per replicate instead of rebuilding one,
// which removes the per-replicate allocation storm at large n while
// keeping results bit-identical: populate replays exactly the RNG
// consumption of a fresh construction.
//
// A Pool is safe for concurrent use. Call Release when a batch
// finishes: it drops the idle executors and stops their persistent
// workers (leaked otherwise for Parallelism > 1). The Pool remains
// usable after Release.
type Pool struct {
	mu   sync.Mutex
	free map[poolKey][]pooledExecutor
}

// NewPool returns an empty executor pool. Its map is allocated on first
// insert, so a pool that never leases (a Study that is built but not
// run) costs one small allocation.
func NewPool() *Pool { return &Pool{} }

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
		engine:     c.Engine,
		n:          c.N,
		sources:    c.Sources,
		protocol:   c.Protocol.Name(),
		topology:   topo.DisplayName(c.Topology),
		shards:     engineShards(&c),
		noisyGraph: c.NoiseEps > 0 && !topo.IsComplete(c.Topology),
	}

	e := p.get(key)
	if e == nil {
		e, err = newPooledExecutor(&c)
	} else if err = e.populate(c); err != nil {
		e.close()
	}
	if err != nil {
		return Result{}, err
	}
	// The idle executor keeps this replicate's Config until its next
	// lease or Release.
	res, runErr := runLoop(ctx, &c, e)
	p.put(key, e)
	return res, runErr
}

func (p *Pool) get(key poolKey) pooledExecutor {
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

func (p *Pool) put(key poolKey, e pooledExecutor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[poolKey][]pooledExecutor)
	}
	p.free[key] = append(p.free[key], e)
}

// Release closes and drops every idle executor. Executors leased at
// call time are unaffected: they return to the pool when their
// replicate finishes and are freed by the next Release.
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
}
