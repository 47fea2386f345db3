package passivespread

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"passivespread/internal/rng"
	"passivespread/internal/stats"
)

func mustStudy(t *testing.T, spec StudySpec) *Study {
	t.Helper()
	study, err := NewStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// TestStudyDeterministicAcrossWorkers: the acceptance contract — on a
// fixed root seed, the study output is byte-identical for one worker and
// for GOMAXPROCS workers (and an awkward in-between count).
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	spec := StudySpec{
		Replicates: 24,
		Options:    Options{N: 512, Seed: 99},
	}
	var base *StudyReport
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		spec.Workers = workers
		report, err := mustStudy(t, spec).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = report
			continue
		}
		if !reflect.DeepEqual(base, report) {
			t.Fatalf("workers=%d: report differs from the single-worker run", workers)
		}
	}
	if base.Convergence.Replicates != 24 {
		t.Fatalf("aggregated %d replicates, want 24", base.Convergence.Replicates)
	}
}

// TestStudySeedContract: replicate i must run with StreamSeed(root, i),
// and feeding that seed to a direct simulation reproduces the replicate.
func TestStudySeedContract(t *testing.T) {
	const root = 1234
	report, err := mustStudy(t, StudySpec{
		Replicates: 5,
		Options:    Options{N: 256, Seed: root, RecordTrajectory: true},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range report.Results {
		if r.Replicate != i {
			t.Fatalf("result %d has replicate index %d", i, r.Replicate)
		}
		if want := rng.StreamSeed(root, uint64(i)); r.Seed != want {
			t.Fatalf("replicate %d seed = %d, want StreamSeed(root, %d) = %d", i, r.Seed, i, want)
		}
	}
	// Replicates with distinct seeds are distinct runs (overwhelmingly).
	if reflect.DeepEqual(report.Results[0].Result.Trajectory, report.Results[1].Result.Trajectory) {
		t.Fatal("replicates 0 and 1 produced identical trajectories")
	}
}

// TestStudyReportMatchesStats: the report's quantiles must agree with
// internal/stats applied to the raw per-replicate times.
func TestStudyReportMatchesStats(t *testing.T) {
	report, err := mustStudy(t, StudySpec{
		Replicates: 32,
		Options:    Options{N: 512, Seed: 7},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, 0, len(report.Results))
	converged := 0
	for _, r := range report.Results {
		if r.Result.Converged {
			converged++
			times = append(times, float64(r.Result.Round))
		} else {
			times = append(times, float64(r.Result.Rounds))
		}
	}
	want := stats.Summarize(times)
	if got := report.Convergence.Rounds; got != want {
		t.Fatalf("report summary %+v\nwant %+v", got, want)
	}
	if report.Convergence.Converged != converged {
		t.Fatalf("Converged = %d, want %d", report.Convergence.Converged, converged)
	}
	wantRate := float64(converged) / float64(len(report.Results))
	if report.Convergence.SuccessRate != wantRate {
		t.Fatalf("SuccessRate = %v, want %v", report.Convergence.SuccessRate, wantRate)
	}
}

// TestStudyCancellation: cancelling the context mid-study must surface
// ctx.Err() promptly — within one simulated round, not after the full
// batch.
func TestStudyCancellation(t *testing.T) {
	// Large population and absurd round cap: running to completion would
	// take far longer than the test timeout.
	study := mustStudy(t, StudySpec{
		Replicates: 64,
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
		t.Fatal("study did not stop promptly after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
}

// TestStudyStreamDelivery: Stream must deliver every replicate exactly
// once, with deterministic per-replicate content in any arrival order.
func TestStudyStreamDelivery(t *testing.T) {
	study := mustStudy(t, StudySpec{Replicates: 16, Options: Options{N: 256, Seed: 11}})
	seen := make(map[int]RunResult)
	for r := range study.Stream(context.Background()) {
		if _, dup := seen[r.Replicate]; dup {
			t.Fatalf("replicate %d delivered twice", r.Replicate)
		}
		seen[r.Replicate] = r
	}
	if len(seen) != 16 {
		t.Fatalf("received %d replicates, want 16", len(seen))
	}
	for i, r := range seen {
		if r.Err != nil {
			t.Fatalf("replicate %d failed: %v", i, r.Err)
		}
	}
}

// TestStudyChainEngine: the Markov chain is a first-class study engine
// at populations no agent-level engine could reach.
func TestStudyChainEngine(t *testing.T) {
	report, err := mustStudy(t, StudySpec{
		Replicates: 8,
		Options: Options{
			N:      100_000_000,
			Seed:   3,
			Engine: EngineMarkovChain,
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Convergence.SuccessRate != 1 {
		t.Fatalf("chain study success rate %v, want 1", report.Convergence.SuccessRate)
	}
	if report.Convergence.Rounds.Max <= 0 {
		t.Fatalf("chain study times %+v", report.Convergence.Rounds)
	}
	for _, r := range report.Results {
		if r.Result.FinalX != 1 {
			t.Fatalf("replicate %d final x = %v", r.Replicate, r.Result.FinalX)
		}
	}
}

// TestStudyChainInitCorrectField: AllWrong/AllCorrect are relative to
// their own Correct field. "All wrong" against the opposite opinion
// means everyone already holds the study's correct opinion, and the
// chain must see that benign start exactly like the agent engines do —
// not silently run the worst case.
func TestStudyChainInitCorrectField(t *testing.T) {
	report, err := mustStudy(t, StudySpec{
		Replicates: 4,
		Options: Options{
			N:           1 << 15,
			Seed:        2,
			CorrectZero: true,
			Init:        AllWrong(OpinionOne), // wrong vs 1 = all on 0 = all correct
			Engine:      EngineMarkovChain,
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if max := report.Convergence.Rounds.Max; max > 2 {
		t.Fatalf("benign start took %v rounds; chain treated it as the worst case", max)
	}
	// And the true worst case stays the worst case.
	worst, err := mustStudy(t, StudySpec{
		Replicates: 4,
		Options: Options{
			N:           1 << 15,
			Seed:        2,
			CorrectZero: true,
			Init:        AllWrong(OpinionZero),
			Engine:      EngineMarkovChain,
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if worst.Convergence.Rounds.Median <= report.Convergence.Rounds.Max {
		t.Fatalf("worst-case median %v not above benign max %v",
			worst.Convergence.Rounds.Median, report.Convergence.Rounds.Max)
	}
}

// TestStudyChainDeterministicAcrossWorkers: determinism holds for the
// chain engine too.
func TestStudyChainDeterministicAcrossWorkers(t *testing.T) {
	spec := StudySpec{
		Replicates: 12,
		Options:    Options{N: 1 << 20, Seed: 21, Engine: EngineMarkovChain, RecordTrajectory: true},
	}
	spec.Workers = 1
	a, err := mustStudy(t, spec).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = runtime.GOMAXPROCS(0)
	b, err := mustStudy(t, spec).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chain study differs across worker counts")
	}
}

// TestNewStudyValidation: malformed specs fail fast with typed errors.
func TestNewStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		spec StudySpec
	}{
		{"zero replicates", StudySpec{Options: Options{N: 64, Seed: 1}}},
		{"negative workers", StudySpec{Replicates: 1, Workers: -1, Options: Options{N: 64}}},
		{"tiny population", StudySpec{Replicates: 1, Options: Options{N: 1}}},
		{"negative rounds", StudySpec{Replicates: 1, Options: Options{N: 64, MaxRounds: -1}}},
		{"negative ell", StudySpec{Replicates: 1, Options: Options{N: 64, Ell: -3}}},
		{"sources out of range", StudySpec{Replicates: 1, Options: Options{N: 64, Sources: 64}}},
		{"chain via config", StudySpec{Replicates: 1, Config: &Config{N: 64, Engine: EngineMarkovChain}}},
		{"chain multi source", StudySpec{Replicates: 1, Options: Options{N: 64, Sources: 2, Engine: EngineMarkovChain}}},
		{"chain uniform init", StudySpec{Replicates: 1, Options: Options{N: 64, Init: UniformInit(), Engine: EngineMarkovChain}}},
		{"chain with observe", StudySpec{Replicates: 1,
			Options: Options{N: 64, Engine: EngineMarkovChain},
			Observe: func(int) []Observer { return nil }}},
		{"shared observers in batch", StudySpec{Replicates: 2, Config: &Config{
			N: 64, Protocol: NewFET(8), Init: HalfInit(), MaxRounds: 100,
			Observers: []Observer{&TrajectoryRecorder{}},
		}}},
	}
	for _, tc := range cases {
		if _, err := NewStudy(tc.spec); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", tc.name, err)
		}
	}
}

// TestDisseminateInvalidOptionsTyped: the one-shot wrapper reports the
// same typed validation error, fixing the old silent MaxRounds=0 edge,
// and rejects the Study-only chain pseudo-engine.
func TestDisseminateInvalidOptionsTyped(t *testing.T) {
	_, err := Disseminate(Options{N: 1, Seed: 1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	_, err = Disseminate(Options{N: 512, MaxRounds: -5})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	_, err = Disseminate(Options{N: 512, Engine: EngineMarkovChain})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("chain via Disseminate: err = %v, want ErrInvalidOptions", err)
	}
}

// TestStudyObserveFactory: per-replicate observers get their own
// instances, composing with the concurrent worker pool.
func TestStudyObserveFactory(t *testing.T) {
	const replicates = 12
	recorders := make([]*TrajectoryRecorder, replicates)
	study := mustStudy(t, StudySpec{
		Replicates: replicates,
		Workers:    4,
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

// TestRunContextCancelledRoot: the root single-run context wrapper
// honors cancellation like the batch path.
func TestRunContextCancelledRoot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		N:         1 << 14,
		Protocol:  NewFET(SampleSize(1 << 14)),
		Init:      HalfInit(),
		Correct:   OpinionOne,
		Seed:      1,
		MaxRounds: 1 << 20,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParseEngineChain: the root-level engine namespace covers the chain.
func TestParseEngineChain(t *testing.T) {
	k, err := ParseEngine("chain")
	if err != nil || k != EngineMarkovChain {
		t.Fatalf("ParseEngine(chain) = %v, %v", k, err)
	}
	if got := EngineName(k); got != "markov-chain" {
		t.Fatalf("EngineName = %q", got)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("ParseEngine(bogus) should fail")
	}
	for _, name := range []string{"fast", "exact", "aggregate"} {
		if _, err := ParseEngine(name); err != nil {
			t.Fatalf("ParseEngine(%s): %v", name, err)
		}
	}
}
