// Package sched is the repository's one worker pool: every set of
// seeded replicates — a Study, a Sweep's grid, a fetserve answer, an
// experiment's trials — is handed out through Run. Scheduling never
// affects results: callers derive each unit's seed from its index
// alone, so any worker count yields the same bytes.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls f once for each index in [0, n), on up to workers
// goroutines (workers ≤ 1 runs every call inline, in index order).
// Indices are handed out in ascending order; once ctx ends no further
// index is handed out, so some indices may never run. Run returns only
// after every call of f has returned. f must be safe for concurrent use
// across distinct indices.
func Run(ctx context.Context, workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
