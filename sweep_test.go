package passivespread

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"passivespread/internal/experiment"
	"passivespread/internal/rng"
)

// smallSweepSpec is a quick multi-axis grid shared by several tests:
// 2 scenarios × 2 engines × 2 ns × 1 ℓ = 8 cells.
func smallSweepSpec(workers int) SweepSpec {
	return SweepSpec{
		Ns:         []int{64, 128},
		Engines:    []EngineKind{EngineAgentFast, EngineAggregate},
		Scenarios:  mustScenarios("worst-case", "half-split"),
		Replicates: 4,
		Workers:    workers,
		Seed:       99,
	}
}

func mustScenarios(names ...string) []Scenario {
	out := make([]Scenario, len(names))
	for i, name := range names {
		sc, ok := ScenarioByName(name)
		if !ok {
			panic("scenario is not a preset: " + name)
		}
		out[i] = sc
	}
	return out
}

func runSweep(t *testing.T, spec SweepSpec) *SweepReport {
	t.Helper()
	sweep, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestSweepDeterministicAcrossWorkers is the heart of the seed contract:
// the rendered CSV must be byte-identical at every shared-pool size.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	spec1 := smallSweepSpec(1)
	spec8 := smallSweepSpec(8)
	csv1 := runSweep(t, spec1).CSV()
	csv8 := runSweep(t, spec8).CSV()
	if csv1 != csv8 {
		t.Fatalf("CSV differs between 1 and 8 workers:\n--- workers=1\n%s--- workers=8\n%s", csv1, csv8)
	}
}

// TestSweepCellSeedContract verifies that each cell's results derive
// from (root seed, cell index) alone: a standalone Study seeded with
// StreamSeed(root, index) reproduces the cell's row exactly, regardless
// of where in the grid the cell sits or how the sweep was scheduled.
func TestSweepCellSeedContract(t *testing.T) {
	spec := smallSweepSpec(3)
	sweep, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Cells()
	for i, cell := range cells {
		if cell.Index != i {
			t.Fatalf("cell %d has Index %d", i, cell.Index)
		}
		if want := rng.StreamSeed(spec.Seed, uint64(i)); cell.Seed != want {
			t.Fatalf("cell %d seed %d, want StreamSeed(root, %d) = %d", i, cell.Seed, i, want)
		}
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce cell 5 (half-split would be cell 4+; pick one mid-grid)
	// as a standalone Study from its derived seed.
	row := report.Rows[5]
	cell := cells[5]
	sc, ok := ScenarioByName(cell.Scenario)
	if !ok {
		t.Fatalf("scenario %q is not a preset", cell.Scenario)
	}
	var kind EngineKind = -2
	for _, k := range []EngineKind{EngineAgentFast, EngineAggregate} {
		if EngineName(k) == cell.Engine {
			kind = k
		}
	}
	if kind == -2 {
		t.Fatalf("unexpected engine %q", cell.Engine)
	}
	cfg := sc.config(cell.N, cell.Ell, DefaultMaxRounds(cell.N), kind, nil, cell.Seed)
	study, err := NewStudy(StudySpec{Replicates: spec.Replicates, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conv := rep.Convergence
	if row.Converged != conv.Converged || row.Mean != conv.Rounds.Mean ||
		row.Median != conv.Rounds.Median || row.P95 != conv.Rounds.P95 || row.Max != conv.Rounds.Max {
		t.Fatalf("cell row %+v does not match standalone study %+v", row, conv)
	}
}

// TestSweepChainCellMatchesStudy checks the chain pseudo-engine path of
// the same contract.
func TestSweepChainCellMatchesStudy(t *testing.T) {
	spec := SweepSpec{
		Ns:         []int{1 << 12, 1 << 14},
		Engines:    []EngineKind{EngineMarkovChain},
		Replicates: 8,
		Seed:       5,
	}
	report := runSweep(t, spec)
	row := report.Rows[1]
	study, err := NewStudy(StudySpec{
		Replicates: 8,
		Options:    Options{N: 1 << 14, Seed: rng.StreamSeed(5, 1), Engine: EngineMarkovChain},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if row.Median != rep.Convergence.Rounds.Median || row.Converged != rep.Convergence.Converged {
		t.Fatalf("chain cell row %+v does not match study %+v", row, rep.Convergence)
	}
}

// TestSweepCancellationPartialRows cancels mid-grid and checks that the
// stream closes cleanly with a subset of valid rows and that Run reports
// ctx.Err() alongside the completed prefix.
func TestSweepCancellationPartialRows(t *testing.T) {
	spec := SweepSpec{
		Ns:         []int{256, 512, 1024, 2048},
		Scenarios:  mustScenarios("worst-case", "uniform"),
		Replicates: 6,
		Workers:    2,
		Seed:       3,
	}
	sweep, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got []SweepRow
	for row := range sweep.Stream(ctx) {
		got = append(got, row)
		if len(got) == 2 {
			cancel()
		}
	}
	cancel()
	if len(got) < 2 || len(got) >= len(sweep.Cells()) {
		t.Fatalf("got %d rows after cancelling at 2, want a strict subset ≥ 2 of %d cells", len(got), len(sweep.Cells()))
	}
	for _, row := range got {
		if row.Err != "" {
			t.Fatalf("cancelled sweep delivered an error row: %+v", row)
		}
		if row.Replicates != spec.Replicates {
			t.Fatalf("partial row with %d replicates: %+v", row.Replicates, row)
		}
	}

	// Run under an already-expiring context: partial rows plus ctx.Err().
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	rep, err := sweep.Run(ctx2)
	if err == nil {
		// The grid can legitimately finish within the deadline on a fast
		// machine; only the error/rows pairing is asserted.
		if len(rep.Rows) != len(sweep.Cells()) {
			t.Fatalf("nil error with %d of %d rows", len(rep.Rows), len(sweep.Cells()))
		}
	} else {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Run error = %v, want deadline", err)
		}
		if len(rep.Rows) >= len(sweep.Cells()) {
			t.Fatalf("deadline error with all %d rows present", len(rep.Rows))
		}
	}
}

// TestSweepCSVRoundTrip renders and re-parses the CSV artifact.
func TestSweepCSVRoundTrip(t *testing.T) {
	report := runSweep(t, smallSweepSpec(0))
	rows, err := ParseSweepCSV(strings.NewReader(report.CSV()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, report.Rows) {
		t.Fatalf("CSV round trip:\ngot  %+v\nwant %+v", rows, report.Rows)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != report.CSV() {
		t.Fatal("WriteCSV and CSV disagree")
	}
}

// TestSweepJSONRoundTrip renders and re-parses the JSON artifact.
func TestSweepJSONRoundTrip(t *testing.T) {
	report := runSweep(t, smallSweepSpec(0))
	data, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSweepJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, report) {
		t.Fatalf("JSON round trip:\ngot  %+v\nwant %+v", back, report)
	}
}

// TestSweepCustomRunnerScenarios runs the clocked-baseline scenarios,
// which execute through a ScenarioRunner rather than a Study.
func TestSweepCustomRunnerScenarios(t *testing.T) {
	report := runSweep(t, SweepSpec{
		Ns:         []int{64},
		Scenarios:  mustScenarios("clocked-shared", "clocked-local"),
		Replicates: 3,
		Seed:       11,
	})
	if len(report.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(report.Rows))
	}
	for _, row := range report.Rows {
		if row.Engine != row.Scenario {
			t.Fatalf("custom-runner row engine %q, want label %q", row.Engine, row.Scenario)
		}
	}
	// The shared-clock baseline is the paper's O(log n) upper bound: it
	// must converge from the worst case.
	if report.Rows[0].Converged != 3 {
		t.Fatalf("clocked-shared converged %d/3: %+v", report.Rows[0].Converged, report.Rows[0])
	}

	// Custom-runner rows are deterministic across worker counts too.
	again := runSweep(t, SweepSpec{
		Ns:         []int{64},
		Scenarios:  mustScenarios("clocked-shared", "clocked-local"),
		Replicates: 3,
		Workers:    4,
		Seed:       11,
	})
	if !reflect.DeepEqual(again.Rows, report.Rows) {
		t.Fatalf("custom-runner rows differ across worker counts")
	}
}

// TestSweepAsyncScenario exercises the sequential-activation runner at a
// tiny scale (its convergence is a documented negative result; only the
// plumbing is asserted).
func TestSweepAsyncScenario(t *testing.T) {
	report := runSweep(t, SweepSpec{
		Ns:         []int{32},
		Scenarios:  mustScenarios("async"),
		Replicates: 2,
		Seed:       1,
		MaxRounds:  20,
	})
	row := report.Rows[0]
	if row.Engine != "async" || row.Replicates != 2 {
		t.Fatalf("async row: %+v", row)
	}
}

func TestNewSweepValidation(t *testing.T) {
	base := func() SweepSpec {
		return SweepSpec{Ns: []int{64}, Replicates: 2}
	}
	cases := []struct {
		name   string
		mutate func(*SweepSpec)
	}{
		{"no replicates", func(s *SweepSpec) { s.Replicates = 0 }},
		{"negative workers", func(s *SweepSpec) { s.Workers = -1 }},
		{"empty ns", func(s *SweepSpec) { s.Ns = nil }},
		{"tiny n", func(s *SweepSpec) { s.Ns = []int{1} }},
		{"duplicate ns", func(s *SweepSpec) { s.Ns = []int{64, 64} }},
		{"negative ell", func(s *SweepSpec) { s.Ells = []int{-1} }},
		{"negative C", func(s *SweepSpec) { s.C = -1 }},
		{"duplicate ells", func(s *SweepSpec) { s.Ells = []int{4, 4} }},
		{"duplicate engines", func(s *SweepSpec) { s.Engines = []EngineKind{EngineAgentFast, EngineAgentFast} }},
		{"duplicate scenarios", func(s *SweepSpec) { s.Scenarios = mustScenarios("uniform", "uniform") }},
		{"unnamed scenario", func(s *SweepSpec) { s.Scenarios = []Scenario{{}} }},
		{"runner × engine axis", func(s *SweepSpec) {
			s.Scenarios = mustScenarios("async")
			s.Engines = []EngineKind{EngineAgentFast, EngineAggregate}
		}},
		{"chain × uniform init", func(s *SweepSpec) {
			s.Scenarios = mustScenarios("uniform")
			s.Engines = []EngineKind{EngineMarkovChain}
		}},
		{"chain × noisy", func(s *SweepSpec) {
			s.Scenarios = mustScenarios("noisy")
			s.Engines = []EngineKind{EngineMarkovChain}
		}},
	}
	for _, tc := range cases {
		spec := base()
		tc.mutate(&spec)
		if _, err := NewSweep(spec); err == nil {
			t.Errorf("%s: NewSweep accepted %+v", tc.name, spec)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: error %v does not wrap ErrInvalidOptions", tc.name, err)
		}
	}
	if _, err := NewSweep(base()); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// TestSweepScenarioAxes runs one cell of every sync built-in scenario at
// a small scale: every preset must at least execute.
func TestSweepScenarioAxes(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario axis takes seconds; skipped in -short")
	}
	var sync []Scenario
	for _, sc := range Scenarios() {
		if sc.Run == nil {
			sync = append(sync, sc)
		}
	}
	report := runSweep(t, SweepSpec{
		Ns:         []int{128},
		Scenarios:  sync,
		Replicates: 2,
		Seed:       17,
		MaxRounds:  600, // keeps the non-converging voter control bounded
	})
	if len(report.Rows) != len(sync) {
		t.Fatalf("got %d rows, want %d", len(report.Rows), len(sync))
	}
	for _, row := range report.Rows {
		if row.Err != "" {
			t.Errorf("scenario %s failed: %s", row.Scenario, row.Err)
		}
	}
}

// TestRootExperimentRegistry verifies that the sweep-based experiments
// listed by this package complete the harness table (E01–E23).
func TestRootExperimentRegistry(t *testing.T) {
	all := Experiments()
	if len(all) != 23 {
		t.Fatalf("Experiments() has %d experiments, want 23", len(all))
	}
	for _, id := range []string{"E01", "E13", "E23"} {
		if _, ok := LookupExperiment(id); !ok {
			t.Fatalf("sweep-based experiment %s missing", id)
		}
	}
}

// TestSweepExperimentsSmoke executes the ported scaling experiments end
// to end at the smoke scale.
func TestSweepExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiments take seconds; skipped in -short")
	}
	for _, id := range []string{"E01", "E13", "E23"} {
		e, ok := LookupExperiment(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		rep, err := e.Run(experiment.Config{Seed: 42, Smoke: true})
		if err != nil {
			t.Fatalf("%s failed: %v", id, err)
		}
		if len(rep.Sections) == 0 {
			t.Fatalf("%s produced no sections", id)
		}
	}
}
