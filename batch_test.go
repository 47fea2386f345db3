package passivespread

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// scenarioSpec builds a Config-form StudySpec from a scenario preset
// preset, resolving the grid values the way a sweep cell would.
func scenarioSpec(t *testing.T, name string, n int, seed uint64) StudySpec {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q is not a preset", name)
	}
	cfg := sc.config(n, SampleSize(n), DefaultMaxRounds(n), EngineAgentFast, sc.Topology, seed)
	return StudySpec{Config: &cfg}
}

// TestStudyBatchBitIdenticalMatrix is the scheduling acceptance
// contract: for trend-executor configurations and for every other
// executor (exact engine, aggregate engine, graph topologies), the
// StudyReport is byte-identical at every Workers × Batch combination.
// Batch is accepted for compatibility and has no effect; Replicates is
// deliberately not a multiple of any width it once batched by.
func TestStudyBatchBitIdenticalMatrix(t *testing.T) {
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec StudySpec
	}{
		{"fet-worst-case", StudySpec{Options: Options{N: 256, Seed: 99}}},
		{"correct-zero", StudySpec{Options: Options{N: 256, Seed: 13, CorrectZero: true}}},
		{"noisy", scenarioSpec(t, "noisy", 256, 31)},
		{"trend-flip", scenarioSpec(t, "trend-flip", 256, 32)},
		{"multi-source", scenarioSpec(t, "multi-source", 256, 33)},
		{"simple-trend", scenarioSpec(t, "simple-trend", 256, 34)},
		{"parallel-engine", StudySpec{Options: Options{N: 256, Seed: 7, Parallelism: 2}}},
		{"exact-engine-fallback", StudySpec{Options: Options{N: 96, Seed: 7, Engine: EngineAgentExact}}},
		{"aggregate-fallback", StudySpec{Options: Options{N: 512, Seed: 7, Engine: EngineAggregate}}},
		{"topology-fallback", StudySpec{Options: Options{N: 128, Seed: 7, Topology: regular}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Replicates = 33
			var base *StudyReport
			for _, workers := range []int{1, 8} {
				for _, batch := range []int{1, 4, 32} {
					spec.Workers, spec.Batch = workers, batch
					report, err := mustStudy(t, spec).Run(context.Background())
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
					}
					if base == nil {
						base = report
						continue
					}
					if !reflect.DeepEqual(base, report) {
						t.Fatalf("workers=%d batch=%d: report differs from the sequential run", workers, batch)
					}
				}
			}
		})
	}
}

// TestStudyChainIgnoresBatch: the Markov-chain form runs per-replicate
// regardless of Batch, with identical reports.
func TestStudyChainIgnoresBatch(t *testing.T) {
	spec := StudySpec{
		Replicates: 9,
		Options:    Options{N: 100_000, Seed: 3, Engine: EngineMarkovChain},
	}
	base, err := mustStudy(t, spec).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec.Batch = 32
	batched, err := mustStudy(t, spec).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, batched) {
		t.Fatal("chain study with Batch=32 differs from unbatched")
	}
}

// TestStudyBatchObserveFactory: per-replicate observers keep their own
// instances under batching, and each sees exactly its replicate's rounds.
func TestStudyBatchObserveFactory(t *testing.T) {
	const replicates = 19
	recorders := make([]*TrajectoryRecorder, replicates)
	study := mustStudy(t, StudySpec{
		Replicates: replicates,
		Workers:    4,
		Batch:      8,
		Options:    Options{N: 256, Seed: 17},
		Observe: func(i int) []Observer {
			recorders[i] = &TrajectoryRecorder{}
			return []Observer{recorders[i]}
		},
	})
	report, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recorders {
		if rec == nil {
			t.Fatalf("replicate %d never got its observer", i)
		}
		if got, want := len(rec.Xs), report.Results[i].Result.Rounds; got != want {
			t.Fatalf("replicate %d recorded %d rounds, executed %d", i, got, want)
		}
	}
}

// TestStudyBatchCancellation: cancelling mid-study stops a batched run
// within one simulated round, like the sequential path.
func TestStudyBatchCancellation(t *testing.T) {
	study := mustStudy(t, StudySpec{
		Replicates: 64,
		Batch:      32,
		Options: Options{
			N:         1 << 16,
			Seed:      5,
			Init:      HalfInit(), // never absorbs within the cap below
			MaxRounds: 1 << 30,
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = study.Run(ctx)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batched study did not stop promptly after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
}

// TestBatchValidation: the Batch knob is range-checked at every layer.
func TestBatchValidation(t *testing.T) {
	for _, batch := range []int{-1, MaxBatch + 1} {
		if _, err := NewStudy(StudySpec{Replicates: 4, Batch: batch, Options: Options{N: 64, Seed: 1}}); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("NewStudy(Batch=%d): err = %v, want ErrInvalidOptions", batch, err)
		}
		if _, err := NewSweep(SweepSpec{Ns: []int{64}, Replicates: 4, Batch: batch, Seed: 1}); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("NewSweep(Batch=%d): err = %v, want ErrInvalidOptions", batch, err)
		}
		if _, err := NewServer(ServeConfig{Batch: batch}); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("NewServer(Batch=%d): err = %v, want ErrInvalidOptions", batch, err)
		}
	}
}

// TestSweepBatchBitIdentical: a sweep's rows are byte-identical with
// batching on — including across an engine axis where aggregate cells
// fall back to per-replicate runs — and a Batch above Replicates clamps
// instead of failing.
func TestSweepBatchBitIdentical(t *testing.T) {
	worst, _ := ScenarioByName(DefaultScenario)
	half, _ := ScenarioByName("half-split")
	noisy, _ := ScenarioByName("noisy")
	spec := SweepSpec{
		Ns:         []int{64, 128},
		Engines:    []EngineKind{EngineAgentFast, EngineAggregate},
		Scenarios:  []Scenario{worst, half, noisy},
		Replicates: 10,
		Workers:    4,
		Seed:       21,
	}
	run := func(batch int) *SweepReport {
		t.Helper()
		spec.Batch = batch
		sweep, err := NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(0)
	for _, batch := range []int{8, MaxBatch} {
		if got := run(batch); !reflect.DeepEqual(base, got) {
			t.Fatalf("sweep with Batch=%d differs from unbatched:\n%s\n%s", batch, base.CSV(), got.CSV())
		}
	}
}

// roundBarrier is an Observer that blocks in round 1 until every one of
// the parties replicates sharing the barrier has reached it, failing
// its replicate if they do not all arrive within the timeout — which is
// what happens when the replicates run one after another.
type roundBarrier struct {
	arrive  *sync.WaitGroup
	all     <-chan struct{}
	timeout time.Duration
}

func (b roundBarrier) ObserveRound(ev RoundEvent) error {
	if ev.Round != 1 {
		return nil
	}
	b.arrive.Done()
	select {
	case <-b.all:
		return nil
	case <-time.After(b.timeout):
		return fmt.Errorf("round-1 barrier: the other replicates never arrived within %v", b.timeout)
	}
}

// TestStudySparseReplicatesRunConcurrently: a study's replicates
// spread across the workers whatever its Batch width, one replicate per
// task. Both replicates must be inside round 1 at the same time, and
// the results must equal the sequential run's.
func TestStudySparseReplicatesRunConcurrently(t *testing.T) {
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	const replicates = 2
	opts := Options{N: 256, Seed: 41, Topology: regular, Init: HalfInit(), MaxRounds: 50}
	var arrive sync.WaitGroup
	arrive.Add(replicates)
	all := make(chan struct{})
	go func() {
		arrive.Wait()
		close(all)
	}()
	concurrent, err := mustStudy(t, StudySpec{
		Replicates: replicates,
		Workers:    2,
		Batch:      32,
		Options:    opts,
		Observe: func(int) []Observer {
			return []Observer{roundBarrier{arrive: &arrive, all: all, timeout: 10 * time.Second}}
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := mustStudy(t, StudySpec{Replicates: replicates, Workers: 1, Batch: 1, Options: opts}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(concurrent.Results, sequential.Results) {
		t.Fatalf("concurrent results differ from the sequential run:\n%+v\n%+v", concurrent.Results, sequential.Results)
	}
}

// TestSweepPerReplicateCellsBitIdentical: sparse agent cells and
// aggregate cells, on both the complete graph and a degree-annealed
// sparse one, are scheduled one replicate per task, and their rows at
// Workers 4 × Batch 32 equal those at Workers 1 × Batch 1.
func TestSweepPerReplicateCellsBitIdentical(t *testing.T) {
	worst, _ := ScenarioByName(DefaultScenario)
	half, _ := ScenarioByName("half-split")
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	smallWorld, err := ParseTopology("small-world:4:0.1")
	if err != nil {
		t.Fatal(err)
	}
	grids := []struct {
		name string
		spec SweepSpec
	}{
		{"sparse-agent", SweepSpec{Topologies: []Topology{regular, smallWorld}, Engines: []EngineKind{EngineAgentFast}}},
		{"sparse-aggregate", SweepSpec{Topologies: []Topology{regular},
			Engines: []EngineKind{EngineAgentFast, EngineAggregateSparse}}},
		{"complete-aggregate", SweepSpec{Engines: []EngineKind{EngineAgentFast, EngineAggregate}}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			spec := g.spec
			spec.Ns = []int{256}
			spec.Scenarios = []Scenario{worst, half}
			spec.Replicates = 6
			spec.MaxRounds = 120
			spec.Seed = 9
			run := func(workers, batch int) *SweepReport {
				t.Helper()
				spec.Workers, spec.Batch = workers, batch
				sweep, err := NewSweep(spec)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sweep.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if base, got := run(1, 1), run(4, 32); !reflect.DeepEqual(base, got) {
				t.Fatalf("Workers 4 × Batch 32 differs from Workers 1 × Batch 1:\n%s\n%s", base.CSV(), got.CSV())
			}
		})
	}
}

// TestStudyObserveCallsSerialized: the Observe hook may keep unguarded
// bookkeeping — the Study never calls it from two workers at once, even
// when replicates run concurrently (the race detector checks this in
// CI).
func TestStudyObserveCallsSerialized(t *testing.T) {
	regular, err := ParseTopology("random-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	const replicates = 12
	calls := make(map[int]int) // unguarded on purpose
	_, err = mustStudy(t, StudySpec{
		Replicates: replicates,
		Workers:    4,
		Batch:      8,
		Options:    Options{N: 128, Seed: 5, Topology: regular, MaxRounds: 20},
		Observe: func(i int) []Observer {
			calls[i]++
			return nil
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replicates; i++ {
		if calls[i] != 1 {
			t.Fatalf("Observe(%d) called %d times, want 1", i, calls[i])
		}
	}
}
