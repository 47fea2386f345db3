package markov

import (
	"math"
	"testing"

	"passivespread/internal/adversary"
	"passivespread/internal/core"
	"passivespread/internal/sim"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ n, ell int }{{1, 4}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.n, tc.ell)
				}
			}()
			New(tc.n, tc.ell, 1)
		}()
	}
}

func TestStateAtClamping(t *testing.T) {
	c := New(100, 8, 1)
	if s := c.StateAt(-0.5, 2); s.K0 != 0 || s.K1 != 100 {
		t.Fatalf("clamped state = %+v", s)
	}
	if s := c.StateAt(0, 0); s.K1 != 1 {
		t.Fatalf("K1 floor: %+v (source must hold 1)", s)
	}
	s := c.StateAt(0.5, 0.25)
	if s.K0 != 50 || s.K1 != 25 {
		t.Fatalf("StateAt(0.5, 0.25) = %+v", s)
	}
	x0, x1 := c.X(s)
	if x0 != 0.5 || x1 != 0.25 {
		t.Fatalf("X = (%v, %v)", x0, x1)
	}
}

func TestAbsorbedOnlyAtAllOnes(t *testing.T) {
	c := New(50, 8, 1)
	if !c.Absorbed(State{K0: 50, K1: 50}) {
		t.Fatal("(n, n) must be absorbed")
	}
	for _, s := range []State{{49, 50}, {50, 49}, {1, 1}} {
		if c.Absorbed(s) {
			t.Fatalf("%+v wrongly absorbed", s)
		}
	}
}

func TestStepStaysAbsorbed(t *testing.T) {
	c := New(64, 12, 2)
	s := State{K0: 64, K1: 64}
	for i := 0; i < 50; i++ {
		s = c.Step(s)
		if !c.Absorbed(s) {
			t.Fatalf("left the absorbing state at step %d: %+v", i, s)
		}
	}
}

func TestStepSourceAlwaysCounted(t *testing.T) {
	c := New(64, 12, 3)
	s := State{K0: 1, K1: 1}
	for i := 0; i < 200; i++ {
		s = c.Step(s)
		if s.K1 < 1 {
			t.Fatalf("K1 = %d < 1 at step %d", s.K1, i)
		}
		if s.K1 > 64 {
			t.Fatalf("K1 = %d > n", s.K1)
		}
	}
}

func TestStepPanicsOnInvalidState(t *testing.T) {
	c := New(10, 4, 1)
	for _, s := range []State{{-1, 5}, {5, 0}, {11, 5}, {5, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step(%+v) did not panic", s)
				}
			}()
			c.Step(s)
		}()
	}
}

func TestRunConvergesFromAllWrong(t *testing.T) {
	for _, n := range []int{256, 4096, 1 << 16} {
		ell := core.SampleSize(n, core.DefaultC)
		c := New(n, ell, uint64(n))
		start := c.StateAt(0, 0) // all wrong (except the source)
		res := c.Run(RunConfig{Start: start, MaxRounds: 5000})
		if !res.Converged {
			t.Fatalf("n=%d: chain did not converge (final %+v)", n, res.Final)
		}
		if res.Round < 1 {
			t.Fatalf("n=%d: converged at round %d", n, res.Round)
		}
	}
}

func TestRunConvergesHugePopulation(t *testing.T) {
	// The aggregate engine's selling point: n = 10^8 in milliseconds per
	// round.
	n := 100_000_000
	ell := core.SampleSize(n, core.DefaultC)
	c := New(n, ell, 99)
	res := c.Run(RunConfig{Start: c.StateAt(0.5, 0.5), MaxRounds: 5000})
	if !res.Converged {
		t.Fatalf("n=1e8: chain did not converge (final %+v)", res.Final)
	}
}

func TestRunPanicsWithoutMaxRounds(t *testing.T) {
	c := New(10, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Run without MaxRounds did not panic")
		}
	}()
	c.Run(RunConfig{Start: State{K0: 5, K1: 5}})
}

func TestRunTrajectoryAndStop(t *testing.T) {
	c := New(1024, 30, 5)
	stops := 0
	res := c.Run(RunConfig{
		Start:            c.StateAt(0.5, 0.5),
		MaxRounds:        1000,
		RecordTrajectory: true,
		Stop: func(round int, _ State) bool {
			stops++
			return round >= 9
		},
	})
	if res.Converged {
		t.Skip("converged before the stop round; extremely unlikely")
	}
	if res.Rounds != 10 {
		t.Fatalf("Rounds = %d, want 10", res.Rounds)
	}
	if len(res.Trajectory) != 10 {
		t.Fatalf("trajectory length %d", len(res.Trajectory))
	}
	for _, x := range res.Trajectory {
		if x < 0 || x > 1 {
			t.Fatalf("trajectory value %v", x)
		}
	}
}

func TestHittingTime(t *testing.T) {
	c := New(512, core.SampleSize(512, core.DefaultC), 7)
	rounds, ok := c.HittingTime(c.StateAt(0, 0), 5000)
	if !ok {
		t.Fatal("did not hit absorption")
	}
	if rounds < 1 || rounds > 5000 {
		t.Fatalf("rounds = %d", rounds)
	}
	// Impossible horizon: report not-ok.
	if _, ok := c.HittingTime(c.StateAt(0, 0), 1); ok {
		t.Fatal("cannot absorb from all-wrong in one round")
	}
}

// TestChainMatchesAgentEngineOneStep cross-validates the chain against
// every simulator engine started from the same grid point: the mean
// one-step image x_{t+2} from (x0, x1), placed on the fast, exact and
// aggregate engines by one GridStart, must agree with the chain's.
func TestChainMatchesAgentEngineOneStep(t *testing.T) {
	const (
		n      = 2048
		x0, x1 = 0.35, 0.45
		trials = 200
	)
	ell := core.SampleSize(n, core.DefaultC)

	// Aggregate chain mean.
	c := New(n, ell, 11)
	sumChain := 0.0
	for i := 0; i < trials; i++ {
		next := c.Step(c.StateAt(x0, x1))
		sumChain += float64(next.K1) / n
	}
	meanChain := sumChain / trials

	gs := adversary.GridStart{X0: x0, X1: x1}
	for _, engine := range []sim.EngineKind{sim.EngineAgentFast, sim.EngineAgentExact, sim.EngineAggregate} {
		t.Run(engine.String(), func(t *testing.T) {
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				var first float64
				_, err := sim.Run(sim.Config{
					N:         n,
					Protocol:  core.NewFET(ell),
					Init:      gs.Init(),
					Correct:   sim.OpinionOne,
					Engine:    engine,
					Seed:      uint64(3000 + trial),
					MaxRounds: 1,
					Memory:    gs.Memory(),
					Observers: []sim.Observer{sim.StopWhen(func(ev sim.RoundEvent) bool {
						first = ev.X
						return true
					})},
				})
				if err != nil {
					t.Fatal(err)
				}
				sum += first
			}
			if mean := sum / trials; math.Abs(meanChain-mean) > 0.01 {
				t.Fatalf("one-step means diverge: chain %v vs %v %v", meanChain, engine, mean)
			}
		})
	}
}

func TestChainMatchesAgentEngineHittingTime(t *testing.T) {
	const (
		n      = 512
		trials = 30
	)
	ell := core.SampleSize(n, core.DefaultC)

	chainSum := 0.0
	c := New(n, ell, 13)
	for i := 0; i < trials; i++ {
		rounds, ok := c.HittingTime(c.StateAt(0, 0), 10000)
		if !ok {
			t.Fatal("chain did not converge")
		}
		chainSum += float64(rounds)
	}
	chainMean := chainSum / trials

	agentSum := 0.0
	for trial := 0; trial < trials; trial++ {
		res, err := sim.Run(sim.Config{
			N:         n,
			Protocol:  core.NewFET(ell),
			Init:      adversary.AllWrong{Correct: sim.OpinionOne},
			Correct:   sim.OpinionOne,
			Seed:      uint64(5000 + trial),
			MaxRounds: 10000,
			Memory:    sim.Memory{Law: sim.MemoryUniform},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("agent run did not converge")
		}
		agentSum += float64(res.Round)
	}
	agentMean := agentSum / trials

	ratio := chainMean / agentMean
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("hitting-time means diverge: chain %v vs agents %v", chainMean, agentMean)
	}
}
