package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"passivespread/internal/topo"
)

// TestPoolSharesJumpLadder: trend executors leased from one Pool at the
// same time share a single graph jump ladder instead of building one
// each, and the ladder has just the rungs the round cap can use.
func TestPoolSharesJumpLadder(t *testing.T) {
	const maxRounds = 200
	cfg := hotpathConfig(EngineAgentFast, 0, topo.RandomRegular(8))
	cfg.Protocol = lsTrend(8, 2)
	cfg.N = 512
	cfg.MaxRounds = maxRounds
	p := NewPool()

	// Both replicates wait for each other in round 1, so both hold a
	// lease at once and the pool must build two executors.
	var arrive sync.WaitGroup
	arrive.Add(2)
	all := make(chan struct{})
	go func() {
		arrive.Wait()
		close(all)
	}()
	barrier := ObserverFunc(func(ev RoundEvent) error {
		if ev.Round != 1 {
			return nil
		}
		arrive.Done()
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("round-1 barrier timed out")
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Seed = uint64(i + 1)
			c.Observers = []Observer{barrier}
			_, errs[i] = p.RunContext(context.Background(), c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var frees []*trendExecutor
	for _, fs := range p.free {
		for _, e := range fs {
			frees = append(frees, e.(*trendExecutor))
		}
	}
	if len(frees) != 2 {
		t.Fatalf("pool holds %d idle executors, want the 2 leased concurrently", len(frees))
	}
	ladder := frees[0].ladder
	if ladder == nil {
		t.Fatal("graph executor has no jump ladder")
	}
	if other := frees[1].ladder; other != ladder {
		t.Fatal("concurrently leased executors built separate jump ladders")
	}
	if got, want := ladder.Depth(), bits.Len(maxRounds); got != want {
		t.Fatalf("ladder depth %d, want %d for MaxRounds %d", got, want, maxRounds)
	}
	for _, tc := range []struct{ maxRounds, depth int }{{1, 1}, {2, 2}, {1 << 30, jumpLadderDepth}} {
		if got := p.jumpLadder(16, tc.maxRounds).Depth(); got != tc.depth {
			t.Fatalf("MaxRounds %d: ladder depth %d, want %d", tc.maxRounds, got, tc.depth)
		}
	}
	p.Release()
	if len(p.ladders) != 0 {
		t.Fatal("Release kept the shared ladders")
	}
}
