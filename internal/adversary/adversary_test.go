package adversary

import (
	"context"
	"math"
	"strings"
	"testing"

	"passivespread/internal/core"
	"passivespread/internal/rng"
	"passivespread/internal/sim"
)

func setup(n, sources int, correct byte) (opinions []byte, isSource []bool) {
	opinions = make([]byte, n)
	isSource = make([]bool, n)
	for i := 0; i < sources; i++ {
		isSource[i] = true
		opinions[i] = correct
	}
	return opinions, isSource
}

func countOnes(op []byte) int {
	c := 0
	for _, v := range op {
		c += int(v)
	}
	return c
}

func TestAllWrong(t *testing.T) {
	op, isSrc := setup(100, 3, sim.OpinionOne)
	AllWrong{Correct: sim.OpinionOne}.Assign(op, isSrc, rng.New(1))
	if got := countOnes(op); got != 3 {
		t.Fatalf("ones = %d, want 3 (sources only)", got)
	}
	op, isSrc = setup(100, 3, sim.OpinionZero)
	AllWrong{Correct: sim.OpinionZero}.Assign(op, isSrc, rng.New(1))
	if got := countOnes(op); got != 97 {
		t.Fatalf("ones = %d, want 97", got)
	}
}

func TestAllCorrect(t *testing.T) {
	op, isSrc := setup(50, 1, sim.OpinionOne)
	AllCorrect{Correct: sim.OpinionOne}.Assign(op, isSrc, rng.New(1))
	if got := countOnes(op); got != 50 {
		t.Fatalf("ones = %d, want 50", got)
	}
}

func TestUniformBalanced(t *testing.T) {
	op, isSrc := setup(20000, 1, sim.OpinionOne)
	Uniform{}.Assign(op, isSrc, rng.New(2))
	frac := float64(countOnes(op)) / 20000
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("uniform ones fraction = %v", frac)
	}
}

func TestFractionExactCount(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		op, isSrc := setup(1000, 1, sim.OpinionOne)
		Fraction{X: x}.Assign(op, isSrc, rng.New(3))
		want := int(math.Round(x * 1000))
		if want < 1 {
			want = 1 // the source always holds 1
		}
		if got := countOnes(op); got != want {
			t.Fatalf("X=%v: ones = %d, want %d", x, got, want)
		}
	}
}

func TestFractionDoesNotTouchSources(t *testing.T) {
	op, isSrc := setup(100, 5, sim.OpinionOne)
	Fraction{X: 0}.Assign(op, isSrc, rng.New(4))
	for i := 0; i < 5; i++ {
		if op[i] != sim.OpinionOne {
			t.Fatalf("source %d overwritten", i)
		}
	}
	if got := countOnes(op); got != 5 {
		t.Fatalf("ones = %d, want 5", got)
	}
}

func TestFractionShuffles(t *testing.T) {
	// The 1s must not all sit at the front of the non-source range.
	op, isSrc := setup(1000, 1, sim.OpinionOne)
	Fraction{X: 0.5}.Assign(op, isSrc, rng.New(5))
	firstHalfOnes := countOnes(op[:500])
	if firstHalfOnes < 150 || firstHalfOnes > 350 {
		t.Fatalf("fraction layout unshuffled: %d ones in first half", firstHalfOnes)
	}
}

// TestPooledHalfSplitReplicateAllocs: a pooled half-split FET replicate
// on the trend executor allocates nothing — Fraction.Assign takes its
// free-slot buffer from freeSlots instead of a fresh n-int slice per
// replicate.
func TestPooledHalfSplitReplicateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	cfg := sim.Config{
		N:         4096,
		Protocol:  core.NewFET(36),
		Init:      HalfSplit(),
		Correct:   sim.OpinionOne,
		MaxRounds: 200,
		Memory:    sim.Memory{Law: sim.MemoryUniform},
		Seed:      7,
	}
	p := sim.NewPool()
	defer p.Release()
	if _, err := p.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		cfg.Seed++
		if _, err := p.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled half-split replicate allocated %v objects, want 0", allocs)
	}
}

func TestFractionPanicsOnBadX(t *testing.T) {
	for _, x := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fraction{X: %v} did not panic", x)
				}
			}()
			op, isSrc := setup(10, 1, sim.OpinionOne)
			Fraction{X: x}.Assign(op, isSrc, rng.New(1))
		}()
	}
}

func TestHalfSplit(t *testing.T) {
	if got := HalfSplit().X; got != 0.5 {
		t.Fatalf("HalfSplit X = %v", got)
	}
}

func TestNames(t *testing.T) {
	if (AllWrong{}).Name() != "all-wrong" {
		t.Fatal((AllWrong{}).Name())
	}
	if (AllCorrect{}).Name() != "all-correct" {
		t.Fatal((AllCorrect{}).Name())
	}
	if (Uniform{}).Name() != "uniform" {
		t.Fatal((Uniform{}).Name())
	}
	if !strings.HasPrefix((Fraction{X: 0.25}).Name(), "fraction(") {
		t.Fatal((Fraction{X: 0.25}).Name())
	}
}

func TestGridStartParts(t *testing.T) {
	gs := GridStart{X0: 0.2, X1: 0.6}
	init := gs.Init()
	if f, ok := init.(Fraction); !ok || f.X != 0.6 {
		t.Fatalf("GridStart.Init = %#v", init)
	}
	if mem := gs.Memory(); mem != (sim.Memory{Law: sim.MemoryBinomial, X0: 0.2}) {
		t.Fatalf("GridStart.Memory = %#v", mem)
	}
}
