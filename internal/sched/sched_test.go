package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryIndexOnce: every index in [0, n) runs exactly once at one
// worker, a few workers, and more workers than indices.
func TestRunEveryIndexOnce(t *testing.T) {
	const n = 97
	for _, workers := range []int{0, 1, 3, n + 2} {
		calls := make([]atomic.Int32, n)
		Run(context.Background(), workers, n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// TestRunEmpty: n = 0 never calls f.
func TestRunEmpty(t *testing.T) {
	Run(context.Background(), 4, 0, func(int) { t.Fatal("f called for n = 0") })
}

// TestRunInlineOrder: one worker runs on the caller's goroutine in
// ascending index order.
func TestRunInlineOrder(t *testing.T) {
	var got []int
	Run(context.Background(), 1, 5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want ascending", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d indices, want 5", len(got))
	}
}

// TestRunStopsAfterCancel: once ctx is cancelled no further index is
// handed out. At one worker the cut is exact. With several workers, a
// call can start after the cancellation only on a worker that checked
// ctx just before it, so at most workers − 1 calls start late.
func TestRunStopsAfterCancel(t *testing.T) {
	const n, cut = 1000, 10
	for _, workers := range []int{1, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int32
		var cancelled atomic.Bool
		Run(ctx, workers, n, func(i int) {
			if cancelled.Load() {
				late.Add(1)
			}
			ran.Add(1)
			if i == cut {
				cancel()
				cancelled.Store(true)
			}
		})
		cancel()
		if !cancelled.Load() {
			t.Fatalf("workers=%d: index %d never ran", workers, cut)
		}
		if workers == 1 && ran.Load() != cut+1 {
			t.Fatalf("workers=1: %d indices ran, want exactly %d", ran.Load(), cut+1)
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Fatalf("workers=%d: %d calls started after the cancellation, want ≤ %d", workers, got, workers-1)
		}
	}
}

// TestRunCancelledBeforeStart: a context that has already ended hands
// out nothing.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		Run(ctx, workers, 10, func(int) { t.Fatalf("workers=%d: f called on a cancelled context", workers) })
	}
}

// TestRunWaitsForEveryCall: Run returns only after every f has
// returned, so the writes f makes are visible to the caller without
// further synchronization (the race detector checks the reads below).
func TestRunWaitsForEveryCall(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 3, n + 2} {
		out := make([]int, n)
		var inFlight atomic.Int32
		Run(context.Background(), workers, n, func(i int) {
			inFlight.Add(1)
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			out[i] = i * i
			inFlight.Add(-1)
		})
		if got := inFlight.Load(); got != 0 {
			t.Fatalf("workers=%d: Run returned with %d calls in flight", workers, got)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}
