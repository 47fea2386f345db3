package trace

import (
	"strings"
	"testing"

	"passivespread/internal/adversary"
	"passivespread/internal/core"
	"passivespread/internal/domain"
	"passivespread/internal/sim"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	n := 4096
	ell := core.SampleSize(n, core.DefaultC)
	res, err := sim.Run(sim.Config{
		N:                n,
		Protocol:         core.NewFET(ell),
		Init:             adversary.AllWrong{Correct: sim.OpinionOne},
		Correct:          sim.OpinionOne,
		Seed:             3,
		MaxRounds:        2000,
		Memory:           sim.Memory{Law: sim.MemoryUniform},
		RecordTrajectory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fixture run did not converge")
	}
	return FromTrajectory(domain.NewParams(n), res.Trajectory[0], res.Trajectory)
}

func TestFromTrajectoryAnnotation(t *testing.T) {
	p := domain.NewParams(1 << 16)
	tr := FromTrajectory(p, 0.5, []float64{0.5, 0.6, 0.9})
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
	}
	if tr.Points[0].Kind != domain.KindYellow {
		t.Fatalf("point 0 kind %v", tr.Points[0].Kind)
	}
	if tr.Points[1].Kind != domain.KindGreen1 { // (0.5, 0.6): speed 0.1 up
		t.Fatalf("point 1 kind %v", tr.Points[1].Kind)
	}
	if tr.Points[1].X0 != 0.5 || tr.Points[1].X1 != 0.6 {
		t.Fatalf("point 1 coords %v %v", tr.Points[1].X0, tr.Points[1].X1)
	}
	if tr.Points[2].Speed != 0.30000000000000004 && tr.Points[2].Speed != 0.3 {
		t.Fatalf("point 2 speed %v", tr.Points[2].Speed)
	}
	if tr.Points[0].Area != domain.AreaA1 && tr.Points[0].Area != domain.AreaC1 {
		// (0.5, 0.5) is on the A1 boundary; priority gives A1.
		t.Fatalf("point 0 area %v", tr.Points[0].Area)
	}
}

func TestCanonicalBouncePath(t *testing.T) {
	// The Figure 1b narrative for an all-wrong start with source 1:
	// the trace must visit Cyan1 (wrong near-consensus) and then Green1
	// (the launched trend), ending absorbed at (1,1) ∈ Cyan0.
	tr := sampleTrace(t)
	if !tr.Contains(domain.KindCyan1) {
		t.Fatalf("bounce path missing Cyan1: %v", tr.KindSequence())
	}
	if !tr.Contains(domain.KindGreen1) {
		t.Fatalf("bounce path missing Green1: %v", tr.KindSequence())
	}
	seq := tr.KindSequence()
	last := seq[len(seq)-1]
	if last != domain.KindCyan0 {
		t.Fatalf("path must end in the absorbing corner region Cyan0, got %v", seq)
	}
	// Green1 must come after Cyan1 in the sequence.
	cyanIdx, greenIdx := -1, -1
	for i, k := range seq {
		if k == domain.KindCyan1 && cyanIdx == -1 {
			cyanIdx = i
		}
		if k == domain.KindGreen1 && greenIdx == -1 {
			greenIdx = i
		}
	}
	if cyanIdx == -1 || greenIdx == -1 || greenIdx < cyanIdx {
		t.Fatalf("expected Cyan1 before Green1: %v", seq)
	}
}

func TestVisitsSumToLength(t *testing.T) {
	tr := sampleTrace(t)
	total := 0
	for _, c := range tr.Visits() {
		total += c
	}
	if total != tr.Len() {
		t.Fatalf("visits sum %d, len %d", total, tr.Len())
	}
}

func TestMaxSpeed(t *testing.T) {
	tr := sampleTrace(t)
	if tr.MaxSpeed() <= 0.1 {
		t.Fatalf("bounce must reach high speed, got %v", tr.MaxSpeed())
	}
	if tr.MaxSpeed() > 1 {
		t.Fatalf("speed above 1: %v", tr.MaxSpeed())
	}
}

func TestCSVFormat(t *testing.T) {
	p := domain.NewParams(1024)
	tr := FromTrajectory(p, 0, []float64{0.001, 0.5})
	out := tr.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if lines[0] != "round,x_t,x_t1,domain,area,speed" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0.000000,0.001000,Cyan1,") {
		t.Fatalf("row 1: %q", lines[1])
	}
}

func TestStringFormat(t *testing.T) {
	p := domain.NewParams(1024)
	tr := FromTrajectory(p, 0.5, []float64{0.5})
	out := tr.String()
	if !strings.Contains(out, "Yellow") {
		t.Fatalf("missing domain column:\n%s", out)
	}
	if !strings.Contains(out, "round") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestEmptyTrace(t *testing.T) {
	p := domain.NewParams(1024)
	tr := FromTrajectory(p, 0, nil)
	if tr.Len() != 0 || tr.MaxSpeed() != 0 || len(tr.KindSequence()) != 0 {
		t.Fatal("empty trace invariants")
	}
}
