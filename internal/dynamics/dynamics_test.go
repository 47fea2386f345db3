package dynamics

import (
	"testing"

	"passivespread/internal/adversary"
	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

func run(t *testing.T, p sim.Protocol, init sim.Initializer, n, maxRounds int, seed uint64) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N:         n,
		Protocol:  p,
		Init:      init,
		Correct:   sim.OpinionOne,
		Seed:      seed,
		MaxRounds: maxRounds,
		Memory:    sim.Memory{Law: sim.MemoryUniform},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNamesAndSampleSizes(t *testing.T) {
	if (Voter{}).Name() != "Voter" || (Voter{}).SampleSizes() != nil {
		t.Fatal("voter metadata")
	}
	if (ThreeMajority{}).Name() != "3-Majority" {
		t.Fatal("3-majority name")
	}
	if got := (ThreeMajority{}).SampleSizes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("3-majority sizes %v", got)
	}
	if (Undecided{}).Name() != "Undecided-State" || (Undecided{}).SampleSizes() != nil {
		t.Fatal("undecided metadata")
	}
}

func TestThreeMajorityConvergesToInitialMajority(t *testing.T) {
	// From a 90% majority of 1s, 3-majority locks in the majority fast —
	// which happens to be the correct opinion here.
	res := run(t, ThreeMajority{}, adversary.Fraction{X: 0.9}, 500, 500, 1)
	if !res.Converged {
		t.Fatalf("3-majority did not lock the 90%% majority: %+v", res)
	}
	if res.Round > 30 {
		t.Fatalf("3-majority took %d rounds from a 90%% majority", res.Round)
	}
}

func TestThreeMajorityIgnoresSourceFromWrongMajority(t *testing.T) {
	// From a 90% majority of 0s, a single stubborn 1-source cannot steer
	// 3-majority within a polylog horizon: the population locks on 0.
	// This is the E18 failure mode that motivates FET.
	res := run(t, ThreeMajority{}, adversary.Fraction{X: 0.1}, 500, 200, 2)
	if res.Converged {
		t.Fatalf("3-majority converged to the source's opinion from a wrong majority: %+v", res)
	}
	if res.FinalX > 0.05 {
		t.Fatalf("expected lock-in near 0, final x = %v", res.FinalX)
	}
}

func TestVoterDriftsSlowly(t *testing.T) {
	// The voter model with one stubborn source does converge eventually
	// (the source is an absorbing zealot) but needs Ω(n) rounds, far past
	// a polylog horizon.
	res := run(t, Voter{}, adversary.AllWrong{Correct: sim.OpinionOne}, 400, 60, 3)
	if res.Converged {
		t.Fatalf("voter converged within a polylog horizon: %+v", res)
	}
}

func TestVoterEventuallyConvergesSmallN(t *testing.T) {
	// With a generous Ω(n²) horizon and a small population the zealot
	// wins: validates that the dynamics are wired correctly.
	res := run(t, Voter{}, adversary.AllWrong{Correct: sim.OpinionOne}, 30, 20000, 4)
	if !res.Converged {
		t.Fatalf("voter with zealot never converged: final x = %v", res.FinalX)
	}
}

func TestUndecidedConvergesToClearMajority(t *testing.T) {
	res := run(t, Undecided{}, adversary.Fraction{X: 0.85}, 500, 1000, 5)
	if !res.Converged {
		t.Fatalf("undecided-state did not lock the 85%% majority: %+v", res)
	}
}

func TestUndecidedAgentStateMachine(t *testing.T) {
	a := &undecidedAgent{}
	obs := &scriptedObs{samples: []byte{0, 1, 1}}
	// Holding 1, sees 0: becomes undecided but still displays 1.
	if got := a.Step(1, obs); got != 1 {
		t.Fatalf("step 1 output %d, want 1", got)
	}
	if !a.Undecidedness() {
		t.Fatal("agent should be undecided")
	}
	// Undecided, sees 1: adopts 1, decided again.
	if got := a.Step(1, obs); got != 1 {
		t.Fatalf("step 2 output %d", got)
	}
	if a.Undecidedness() {
		t.Fatal("agent should be decided")
	}
	// Holding 1, sees 1: stays decided.
	if got := a.Step(1, obs); got != 1 {
		t.Fatalf("step 3 output %d", got)
	}
	if a.Undecidedness() {
		t.Fatal("agent should remain decided")
	}
}

type scriptedObs struct {
	samples []byte
	i       int
}

func (s *scriptedObs) CountOnes(m int) int {
	c := 0
	for j := 0; j < m; j++ {
		c += int(s.Sample())
	}
	return c
}

func (s *scriptedObs) Sample() byte {
	v := s.samples[s.i%len(s.samples)]
	s.i++
	return v
}

func TestUndecidedCorruptState(t *testing.T) {
	src := rng.New(1)
	sawTrue, sawFalse := false, false
	for i := 0; i < 100; i++ {
		a := &undecidedAgent{}
		a.CorruptState(src)
		if a.Undecidedness() {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatal("CorruptState never varied the flag")
	}
}
