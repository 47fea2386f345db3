package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"passivespread/internal/rng"
)

// infectProtocol is one-way rumor spreading toward a target opinion: an
// agent that already holds the target keeps it; otherwise it adopts the
// target as soon as it samples an agent holding it. With a source this
// converges in ≈ 2·log₂ n rounds (Karp et al.), making it a fast engine
// test fixture.
type infectProtocol struct{ target byte }

func (p infectProtocol) Name() string               { return "infect" }
func (infectProtocol) SampleSizes() []int           { return nil }
func (p infectProtocol) NewAgent(*rng.Source) Agent { return infectAgent{p.target} }

type infectAgent struct{ target byte }

func (a infectAgent) Step(cur byte, obs Observation) byte {
	if cur == a.target {
		return cur
	}
	if obs.Sample() == a.target {
		return a.target
	}
	return cur
}

// constProtocol always outputs a fixed opinion.
type constProtocol struct{ v byte }

func (p constProtocol) Name() string               { return "const" }
func (constProtocol) SampleSizes() []int           { return nil }
func (p constProtocol) NewAgent(*rng.Source) Agent { return constAgent{p.v} }

type constAgent struct{ v byte }

func (a constAgent) Step(byte, Observation) byte { return a.v }

// majorityProtocol adopts 1 iff at least ⌈m/2⌉ of m samples are 1 — uses
// CountOnes so the fast engine's tables get exercised.
type majorityProtocol struct{ m int }

func (p majorityProtocol) Name() string               { return "majority" }
func (p majorityProtocol) SampleSizes() []int         { return []int{p.m} }
func (p majorityProtocol) NewAgent(*rng.Source) Agent { return majorityAgent{p.m} }

type majorityAgent struct{ m int }

func (a majorityAgent) Step(cur byte, obs Observation) byte {
	c := obs.CountOnes(a.m)
	switch {
	case 2*c > a.m:
		return OpinionOne
	case 2*c < a.m:
		return OpinionZero
	default:
		return cur
	}
}

// allWrongInit starts every non-source at 0.
type allWrongInit struct{}

func (allWrongInit) Name() string { return "all-wrong" }
func (allWrongInit) Assign(op []byte, isSource []bool, _ *rng.Source) {
	for i := range op {
		if !isSource[i] {
			op[i] = OpinionZero
		}
	}
}

// allCorrectInit starts every non-source at 1.
type allCorrectInit struct{}

func (allCorrectInit) Name() string { return "all-correct" }
func (allCorrectInit) Assign(op []byte, isSource []bool, _ *rng.Source) {
	for i := range op {
		if !isSource[i] {
			op[i] = OpinionOne
		}
	}
}

func baseConfig() Config {
	return Config{
		N:         200,
		Protocol:  infectProtocol{target: OpinionOne},
		Init:      allWrongInit{},
		Correct:   OpinionOne,
		Seed:      1,
		MaxRounds: 500,
	}
}

// twoSizesProtocol is majorityProtocol declaring a second sample size.
type twoSizesProtocol struct{ majorityProtocol }

func (twoSizesProtocol) SampleSizes() []int { return []int{3, 5} }

// unseededTrendProto is lsTrendProto with agents that cannot take a
// seeded count: still trend-executor eligible, but not a TrendSeeder.
type unseededTrendProto struct{ lsTrendProto }

func (p unseededTrendProto) NewAgent(src *rng.Source) Agent {
	return unseededTrendAgent{p.lsTrendProto.NewAgent(src).(*lsTrendAgent)}
}

type unseededTrendAgent struct{ a *lsTrendAgent }

func (u unseededTrendAgent) Step(cur byte, obs Observation) byte { return u.a.Step(cur, obs) }
func (u unseededTrendAgent) PrevCount() int                      { return u.a.PrevCount() }
func (u unseededTrendAgent) ResetAgent()                         { u.a.ResetAgent() }

func TestRunValidation(t *testing.T) {
	binomial := func(x0 float64) func(*Config) {
		return func(c *Config) {
			c.Protocol = majorityProtocol{m: 5}
			c.Memory = Memory{Law: MemoryBinomial, X0: x0}
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		memory bool // the error is a *MemoryError
	}{
		{"tiny N", func(c *Config) { c.N = 1 }, false},
		{"no protocol", func(c *Config) { c.Protocol = nil }, false},
		{"no init", func(c *Config) { c.Init = nil }, false},
		{"no rounds", func(c *Config) { c.MaxRounds = 0 }, false},
		{"bad correct", func(c *Config) { c.Correct = 2 }, false},
		{"too many sources", func(c *Config) { c.Sources = 200 }, false},
		{"negative sources", func(c *Config) { c.Sources = -1 }, false},
		{"bad absorb window", func(c *Config) { c.AbsorbWindow = -3 }, false},
		{"unknown memory law", func(c *Config) { c.Memory.Law = MemoryBinomial + 1 }, true},
		{"memory X0 NaN", binomial(math.NaN()), true},
		{"memory X0 below 0", binomial(-0.1), true},
		{"memory X0 above 1", binomial(1.5), true},
		{"memory X0 under uniform", func(c *Config) { c.Memory = Memory{Law: MemoryUniform, X0: 0.5} }, true},
		{"memory X0 under fresh", func(c *Config) { c.Memory.X0 = 0.5 }, true},
		{"binomial memory, two sample sizes", func(c *Config) {
			binomial(0.5)(c)
			c.Protocol = twoSizesProtocol{}
		}, true},
		{"binomial memory, no sample size", func(c *Config) { c.Memory = Memory{Law: MemoryBinomial} }, true},
		{"binomial memory, agents not TrendSeeders", binomial(0.5), true},
		{"binomial memory, trend agents not TrendSeeders", func(c *Config) {
			binomial(0.5)(c)
			c.Protocol = unseededTrendProto{lsTrend(5, 2)}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("expected a config error")
			}
			var me MemoryError
			if errors.As(err, &me) != tc.memory {
				t.Fatalf("error %v (%T): *MemoryError %v, want %v", err, err, !tc.memory, tc.memory)
			}
		})
	}
}

func TestInfectSpreadsFromSource(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("infect protocol did not converge in %d rounds (final x = %v)",
			res.Rounds, res.FinalX)
	}
	// Rumor spreading completes in ~2·log₂ n ≈ 15 rounds; allow slack.
	if res.Round > 60 {
		t.Fatalf("convergence took %d rounds, suspiciously long", res.Round)
	}
}

func TestAllCorrectStartIsAbsorbedImmediately(t *testing.T) {
	cfg := baseConfig()
	cfg.Init = allCorrectInit{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Round != 0 {
		t.Fatalf("want immediate absorption at round 0, got %+v", res)
	}
}

func TestStubbornWrongNeverConverges(t *testing.T) {
	cfg := baseConfig()
	cfg.Protocol = constProtocol{v: OpinionZero}
	cfg.MaxRounds = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("const-0 protocol cannot converge to 1")
	}
	wantX := 1 / float64(cfg.N) // only the source holds 1
	if math.Abs(res.FinalX-wantX) > 1e-12 {
		t.Fatalf("FinalX = %v, want %v", res.FinalX, wantX)
	}
	if res.Rounds != 50 {
		t.Fatalf("Rounds = %d, want 50", res.Rounds)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	for _, engine := range []EngineKind{EngineAgentFast, EngineAgentExact} {
		cfg := baseConfig()
		cfg.Engine = engine
		cfg.RecordTrajectory = true
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Round != b.Round || a.Rounds != b.Rounds || len(a.Trajectory) != len(b.Trajectory) {
			t.Fatalf("engine %v: same seed diverged: %+v vs %+v", engine, a, b)
		}
		for i := range a.Trajectory {
			if a.Trajectory[i] != b.Trajectory[i] {
				t.Fatalf("engine %v: trajectories diverge at %d", engine, i)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := baseConfig()
	cfg.RecordTrajectory = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := a.Rounds == b.Rounds
	if same {
		for i := range a.Trajectory {
			if i < len(b.Trajectory) && a.Trajectory[i] != b.Trajectory[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestEnginesAgreeStatistically(t *testing.T) {
	// The exact and fast engines sample the same law; their convergence
	// time distributions must match. Compare means over repeated trials
	// with the majority protocol from a half split (if one engine were
	// biased, the hitting times would shift).
	const trials = 60
	means := make(map[EngineKind]float64)
	for _, engine := range []EngineKind{EngineAgentFast, EngineAgentExact} {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			cfg := Config{
				N:         150,
				Protocol:  majorityProtocol{m: 9},
				Init:      halfInit{},
				Correct:   OpinionOne,
				Seed:      uint64(1000 + trial),
				MaxRounds: 3000,
				Engine:    engine,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				// Majority dynamics from a half split may tip either way;
				// count non-converged runs at the cap.
				sum += float64(cfg.MaxRounds)
				continue
			}
			sum += float64(res.Round)
		}
		means[engine] = sum / trials
	}
	a, b := means[EngineAgentFast], means[EngineAgentExact]
	if a == 0 && b == 0 {
		t.Fatal("degenerate: both engines report 0 mean rounds")
	}
	ratio := a / b
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("engine hitting-time means diverge: fast %v vs exact %v", a, b)
	}
}

// halfInit gives the first half of non-sources opinion 1.
type halfInit struct{}

func (halfInit) Name() string { return "half" }
func (halfInit) Assign(op []byte, isSource []bool, _ *rng.Source) {
	k := 0
	for i := range op {
		if isSource[i] {
			continue
		}
		if k%2 == 0 {
			op[i] = OpinionOne
		} else {
			op[i] = OpinionZero
		}
		k++
	}
}

func TestTrajectoryRecording(t *testing.T) {
	cfg := baseConfig()
	cfg.RecordTrajectory = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Rounds+1 {
		t.Fatalf("trajectory has %d entries for %d rounds", len(res.Trajectory), res.Rounds)
	}
	wantX0 := 1 / float64(cfg.N)
	if math.Abs(res.Trajectory[0]-wantX0) > 1e-12 {
		t.Fatalf("x_0 = %v, want %v (all-wrong + 1 source)", res.Trajectory[0], wantX0)
	}
	for i, x := range res.Trajectory {
		if x < 0 || x > 1 {
			t.Fatalf("x_%d = %v out of [0,1]", i, x)
		}
	}
	if res.Trajectory[len(res.Trajectory)-1] != 1 {
		t.Fatalf("converged run must end at x = 1, got %v", res.Trajectory[len(res.Trajectory)-1])
	}
}

func TestObserverEarlyStop(t *testing.T) {
	cfg := baseConfig()
	calls := 0
	cfg.Observers = []Observer{
		ObserverFunc(func(ev RoundEvent) error {
			calls++
			if ev.Round >= 4 {
				return ErrStopRun
			}
			return nil
		}),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatal("expected StoppedEarly")
	}
	if res.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5 (stop requested after round index 4)", res.Rounds)
	}
	if calls != 5 {
		t.Fatalf("observer called %d times", calls)
	}
}

func TestObserverErrorAbortsRun(t *testing.T) {
	cfg := baseConfig()
	boom := errors.New("boom")
	cfg.Observers = []Observer{
		ObserverFunc(func(ev RoundEvent) error {
			if ev.Round == 2 {
				return boom
			}
			return nil
		}),
	}
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the observer's error", err)
	}
}

func TestStopWhenObserver(t *testing.T) {
	cfg := baseConfig()
	cfg.Observers = []Observer{StopWhen(func(ev RoundEvent) bool { return ev.Round == 3 })}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly || res.Rounds != 4 {
		t.Fatalf("res = %+v, want StoppedEarly after 4 rounds", res)
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxRounds = 1 << 20
	cfg.RunToEnd = true
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Observers = []Observer{
		ObserverFunc(func(ev RoundEvent) error {
			if ev.Round == 5 {
				cancel()
			}
			return nil
		}),
	}
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, baseConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunToEnd(t *testing.T) {
	cfg := baseConfig()
	cfg.RunToEnd = true
	cfg.MaxRounds = 120
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("infect run did not converge")
	}
	if res.Rounds != 120 {
		t.Fatalf("RunToEnd: Rounds = %d, want full 120", res.Rounds)
	}
	if res.FinalX != 1 {
		t.Fatalf("converged state must persist to the end, final x = %v", res.FinalX)
	}
}

func TestMultipleSources(t *testing.T) {
	cfg := baseConfig()
	cfg.Sources = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with 8 sources")
	}
}

func TestCorrectZeroSide(t *testing.T) {
	// The problem is symmetric: sources may hold 0.
	cfg := baseConfig()
	cfg.Protocol = infectProtocol{target: OpinionZero}
	cfg.Correct = OpinionZero
	cfg.Init = allCorrectInitZeroWrong{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge on 0: %+v", res)
	}
	if res.FinalX != 0 {
		t.Fatalf("final x = %v, want 0", res.FinalX)
	}
}

// allCorrectInitZeroWrong starts non-sources at 1 when correct is 0.
type allCorrectInitZeroWrong struct{}

func (allCorrectInitZeroWrong) Name() string { return "all-wrong-for-zero" }
func (allCorrectInitZeroWrong) Assign(op []byte, isSource []bool, _ *rng.Source) {
	for i := range op {
		if !isSource[i] {
			op[i] = OpinionOne
		}
	}
}

// badProtocol emits an invalid opinion value.
type badProtocol struct{}

func (badProtocol) Name() string               { return "bad" }
func (badProtocol) SampleSizes() []int         { return nil }
func (badProtocol) NewAgent(*rng.Source) Agent { return badAgent{} }

type badAgent struct{}

func (badAgent) Step(byte, Observation) byte { return 7 }

func TestInvalidOpinionRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Protocol = badProtocol{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for invalid opinion value")
	}
}

// overwriteInit illegally rewrites source opinions.
type overwriteInit struct{}

func (overwriteInit) Name() string { return "overwrite" }
func (overwriteInit) Assign(op []byte, _ []bool, _ *rng.Source) {
	for i := range op {
		op[i] = OpinionZero
	}
}

func TestInitializerCannotTouchSources(t *testing.T) {
	cfg := baseConfig()
	cfg.Init = overwriteInit{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error when the initializer overwrites a source")
	}
}

func TestEngineKindString(t *testing.T) {
	if EngineAgentFast.String() != "agent-fast" {
		t.Fatal(EngineAgentFast.String())
	}
	if EngineAgentExact.String() != "agent-exact" {
		t.Fatal(EngineAgentExact.String())
	}
	if EngineKind(99).String() != "unknown" {
		t.Fatal(EngineKind(99).String())
	}
}

func TestFastObserverFallbackUndeclaredSize(t *testing.T) {
	// CountOnes with a size not in SampleSizes must still work via the
	// direct binomial fallback.
	obs := &fastObserver{x: 0.5, src: rng.New(3)}
	const trials = 20000
	sum := 0
	for i := 0; i < trials; i++ {
		c := obs.CountOnes(10)
		if c < 0 || c > 10 {
			t.Fatalf("CountOnes(10) = %d", c)
		}
		sum += c
	}
	mean := float64(sum) / trials
	if math.Abs(mean-5) > 0.15 {
		t.Fatalf("fallback mean = %v, want ≈5", mean)
	}
}

// bitsOf packs a byte-per-agent opinion vector into the executor's
// bitset representation, for observer-level tests.
func bitsOf(ops []byte) *opinionBits {
	b := &opinionBits{}
	b.resize(len(ops))
	b.packFrom(ops)
	return b
}

func TestExactObserverCounts(t *testing.T) {
	opinions := []byte{1, 1, 1, 0, 0, 0, 0, 0} // x = 3/8
	obs := &exactObserver{ops: bitsOf(opinions), src: rng.New(4)}
	const trials = 40000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += obs.CountOnes(8)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-3) > 0.1 { // E = 8·(3/8) = 3
		t.Fatalf("exact observer mean = %v, want ≈3", mean)
	}
}
