package passivespread

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseTopologyRoundTripAndErrors(t *testing.T) {
	for _, spec := range []string{
		"complete", "ring:2", "torus", "random-regular:8", "small-world:4:0.1", "dynamic:8:0.2",
	} {
		tp, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		if got := TopologyName(tp); got != spec {
			t.Errorf("ParseTopology(%q).Name() = %q", spec, got)
		}
	}
	for _, spec := range []string{"", "mesh", "ring:x", "small-world:4:7", "complete:1"} {
		_, err := ParseTopology(spec)
		if err == nil {
			t.Errorf("ParseTopology(%q) accepted", spec)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("ParseTopology(%q) error %v does not wrap ErrInvalidOptions", spec, err)
		}
	}
}

// TestTopologyEngineIncompatibilitiesUpFront: engine/topology conflicts
// must fail at Options/StudySpec/SweepSpec validation with typed
// ErrInvalidOptions — never from inside a worker mid-batch.
func TestTopologyEngineIncompatibilitiesUpFront(t *testing.T) {
	for _, engine := range []EngineKind{EngineAggregate, EngineMarkovChain} {
		_, err := NewStudy(StudySpec{
			Replicates: 4,
			Options:    Options{N: 1024, Engine: engine, Topology: SmallWorld(4, 0.1)},
		})
		if err == nil {
			t.Fatalf("NewStudy accepted %s × small-world", EngineName(engine))
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s × small-world error %v does not wrap ErrInvalidOptions", EngineName(engine), err)
		}
	}
	if _, err := Disseminate(Options{N: 1024, Engine: EngineAggregate, Topology: Ring(2)}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Disseminate aggregate × ring error: %v", err)
	}

	// Sweep axis crosses reject the whole grid up front.
	_, err := NewSweep(SweepSpec{
		Ns:         []int{1024},
		Engines:    []EngineKind{EngineAgentFast, EngineMarkovChain},
		Topologies: []Topology{CompleteTopology(), RandomRegular(8)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("chain × sparse sweep error: %v", err)
	}
	// Custom-runner scenarios define their own scheduling.
	async, ok := ScenarioByName("async")
	if !ok {
		t.Fatal("async is not a preset")
	}
	_, err = NewSweep(SweepSpec{
		Ns:         []int{1024},
		Scenarios:  []Scenario{async},
		Topologies: []Topology{RandomRegular(8)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("async × sparse sweep error: %v", err)
	}
	// A scenario that pins its own topology cannot cross the axis.
	sparse, ok := ScenarioByName("sparse-regular")
	if !ok {
		t.Fatal("sparse-regular is not a preset")
	}
	_, err = NewSweep(SweepSpec{
		Ns:         []int{1024},
		Scenarios:  []Scenario{sparse},
		Topologies: []Topology{Ring(2)},
		Replicates: 2,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("pinned-topology scenario × axis error: %v", err)
	}
	// A topology the population cannot carry fails at NewStudy.
	_, err = NewStudy(StudySpec{Replicates: 1, Options: Options{N: 1000, Topology: Torus()}})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("torus over non-square n error: %v", err)
	}
}

// TestSparseTopologyParallelBitIdentical: the root-level acceptance bar —
// the fast engine must be byte-identical at any Parallelism on a
// non-complete topology (neighbor-list construction and per-round
// rewiring included).
func TestSparseTopologyParallelBitIdentical(t *testing.T) {
	for _, tp := range []Topology{RandomRegular(8), DynamicRewire(8, 0.3)} {
		base := Options{
			N:                2048,
			Seed:             5,
			Topology:         tp,
			MaxRounds:        300,
			RecordTrajectory: true,
		}
		ref, err := Disseminate(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			opts := base
			opts.Parallelism = workers
			got, err := Disseminate(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s: P=%d diverged from one shard", TopologyName(tp), workers)
			}
		}
	}
}

// TestTopologySweepDeterministicAcrossWorkers: a sweep over the topology
// axis must render byte-identical CSV at every worker count — the
// end-to-end form of the acceptance criterion "deterministic CSV output
// at any -workers value".
func TestTopologySweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		sweep, err := NewSweep(SweepSpec{
			Ns:         []int{256},
			Topologies: []Topology{CompleteTopology(), RandomRegular(8), SmallWorld(4, 0.1), DynamicRewire(8, 0.2), Ring(2)},
			Replicates: 6,
			Workers:    workers,
			Seed:       11,
			MaxRounds:  200,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.CSV()
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != ref {
			t.Fatalf("sweep CSV differs between 1 and %d workers:\n%s\nvs\n%s", workers, ref, got)
		}
	}
	// The topology column must carry the canonical parseable names.
	rows, err := ParseSweepCSV(strings.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	wantTopos := []string{"complete", "random-regular:8", "small-world:4:0.1", "dynamic:8:0.2", "ring:2"}
	for i, row := range rows {
		if row.Topology != wantTopos[i] {
			t.Fatalf("row %d topology %q, want %q", i, row.Topology, wantTopos[i])
		}
		if _, err := ParseTopology(row.Topology); err != nil {
			t.Fatalf("row %d topology %q does not parse back: %v", i, row.Topology, err)
		}
	}
}

// TestSparseScenarioPresetsRunEndToEnd: every sparse-* preset must run
// through the default sweep path (success is not asserted — the ring's
// diameter makes non-convergence at a tight cap a legitimate finding).
func TestSparseScenarioPresetsRunEndToEnd(t *testing.T) {
	names := []string{"sparse-regular", "sparse-ring", "sparse-small-world", "sparse-dynamic"}
	scenarios := make([]Scenario, 0, len(names))
	for _, name := range names {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("%s is not a preset", name)
		}
		scenarios = append(scenarios, sc)
	}
	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{256},
		Scenarios:  scenarios,
		Replicates: 3,
		Seed:       4,
		MaxRounds:  120,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		if row.Err != "" {
			t.Errorf("scenario %s failed: %s", row.Scenario, row.Err)
		}
		wantTopo := map[string]string{
			"sparse-regular":     "random-regular:8",
			"sparse-ring":        "ring:2",
			"sparse-small-world": "small-world:4:0.1",
			"sparse-dynamic":     "dynamic:8:0.2",
		}[names[i]]
		if row.Topology != wantTopo {
			t.Errorf("scenario %s reports topology %q, want %q", row.Scenario, row.Topology, wantTopo)
		}
	}
}

// buildCLITools compiles fetsim, fetsweep, fetlab and fettrace into a
// temp dir once per golden test run.
func buildCLITools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("golden CLI tests build binaries; skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/fetsim", "./cmd/fetsweep", "./cmd/fetlab", "./cmd/fettrace")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building CLI tools: %v\n%s", err, out)
	}
	return dir
}

// goldenAtWorkers rewrites a fetsim golden captured at one worker
// (-workers 1) to the output expected at -workers workers: only the
// "replicates R across W workers" header line names the worker count,
// every other byte is scheduling-independent.
func goldenAtWorkers(t *testing.T, golden []byte, workers int) []byte {
	t.Helper()
	const one = " across 1 workers\n"
	if bytes.Count(golden, []byte(one)) != 1 {
		t.Fatalf("golden has no single %q header line", strings.TrimSpace(one))
	}
	return bytes.Replace(golden, []byte(one), []byte(fmt.Sprintf(" across %d workers\n", workers)), 1)
}

// TestGoldenFetsimByteIdentical: the default-topology regression guard.
// testdata/golden_fetsim.txt was captured from the pre-topology tree at
// fixed seeds and one worker; the refactored fetsim must reproduce it
// byte for byte — no silent RNG-stream reshuffle for existing users —
// at -workers 1, and at -workers 4 up to the worker count in the header.
func TestGoldenFetsimByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fetsim.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []struct {
		args []string
		want []byte
	}{
		{[]string{"-workers", "1"}, golden},
		{[]string{"-workers", "4"}, goldenAtWorkers(t, golden, 4)},
	} {
		args := append([]string{"-n", "1024", "-seed", "7", "-replicates", "8"}, sched.args...)
		out, err := exec.Command(filepath.Join(bin, "fetsim"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("fetsim %v: %v\n%s", sched.args, err, out)
		}
		if !bytes.Equal(out, sched.want) {
			t.Fatalf("fetsim %v output diverged from the pre-topology golden:\n--- want\n%s\n--- got\n%s", sched.args, sched.want, out)
		}
	}

	goldenTraj, err := os.ReadFile(filepath.Join("testdata", "golden_fetsim_traj.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "fetsim"),
		"-n", "512", "-seed", "3", "-trajectory").CombinedOutput()
	if err != nil {
		t.Fatalf("fetsim -trajectory: %v\n%s", err, out)
	}
	if !bytes.Equal(out, goldenTraj) {
		t.Fatalf("fetsim trajectory diverged from the pre-topology golden (full x_t stream reshuffled)")
	}
}

// TestGoldenFettraceByteIdentical: the grid-start guard. fettrace places
// the chain at (x_t, x_{t+1}) through a binomial memory law, so its bytes
// pin that law's draws on every executor that runs it.
// testdata/golden_fettrace.csv holds two runs: an interior start
// (0.35, 0.45) and the corner start (0, 0.001).
func TestGoldenFettraceByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fettrace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, start := range [][]string{{"-x0", "0.35", "-x1", "0.45"}, {"-x0", "0", "-x1", "0.001"}} {
		args := append([]string{"-n", "1024", "-seed", "5", "-csv"}, start...)
		out, err := exec.Command(filepath.Join(bin, "fettrace"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("fettrace %v: %v\n%s", start, err, out)
		}
		got = append(got, out...)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("fettrace output diverged from the golden:\n--- want\n%s\n--- got\n%s", golden, got)
	}
}

// TestGoldenFetsweepByteIdentical: same guard for fetsweep CSV. The
// topology schema change is the one visible difference (a new "topology"
// column always rendering "complete" for uniform-mixing sweeps), so the
// comparison strips that column and requires everything else —
// cell indices, derived seeds, every statistic — byte-identical.
func TestGoldenFetsweepByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fetsweep_complete.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "fetsweep"),
		"-ns", "256,1024", "-replicates", "8", "-scenarios", "worst-case,noisy",
		"-seed", "9", "-workers", "4", "-format", "csv").CombinedOutput()
	if err != nil {
		t.Fatalf("fetsweep: %v\n%s", err, out)
	}
	stripped, err := stripCSVColumn(out, "topology")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, golden) {
		t.Fatalf("fetsweep CSV (minus the topology column) diverged from the pre-topology golden:\n--- golden\n%s\n--- got\n%s",
			golden, stripped)
	}
}

// stripCSVColumn removes the named column from simple (unquoted) CSV
// bytes, erroring if the header does not contain it.
func stripCSVColumn(data []byte, col string) ([]byte, error) {
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(data))
	drop := -1
	for lineNo := 0; sc.Scan(); lineNo++ {
		fields := strings.Split(sc.Text(), ",")
		if lineNo == 0 {
			for i, f := range fields {
				if f == col {
					drop = i
				}
			}
			if drop < 0 {
				return nil, fmt.Errorf("column %q not in header %q", col, sc.Text())
			}
		}
		if drop >= len(fields) {
			return nil, fmt.Errorf("row %d has %d fields, drop index %d", lineNo, len(fields), drop)
		}
		kept := append(append([]string{}, fields[:drop]...), fields[drop+1:]...)
		b.WriteString(strings.Join(kept, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String()), sc.Err()
}

// TestGoldenStudyAggregatesUnchanged: a library-level guard that does
// not shell out — the Study aggregates at the golden parameters must
// match the numbers recorded in the pre-topology capture.
func TestGoldenStudyAggregatesUnchanged(t *testing.T) {
	study, err := NewStudy(StudySpec{
		Replicates: 8,
		Options:    Options{N: 1024, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conv := rep.Convergence
	if conv.Converged != 8 {
		t.Fatalf("converged %d/8, golden capture had 8/8", conv.Converged)
	}
	for name, got := range map[string]float64{
		"mean":   conv.Rounds.Mean,
		"median": conv.Rounds.Median,
		"p95":    conv.Rounds.P95,
		"max":    conv.Rounds.Max,
	} {
		if got != 4 {
			t.Fatalf("%s t_con = %v, golden capture had 4 (RNG stream reshuffled?)", name, got)
		}
	}
}

// TestCompleteSweepCSVSchemaStable: the new column renders "complete"
// for uniform-mixing sweeps and the header is exactly the documented
// order (ParseSweepCSV depends on it).
func TestCompleteSweepCSVSchemaStable(t *testing.T) {
	sweep, err := NewSweep(SweepSpec{Ns: []int{64}, Replicates: 2, Seed: 1, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	wantHeader := "cell,scenario,engine,topology,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error"
	if lines[0] != wantHeader {
		t.Fatalf("CSV header %q, want %q", lines[0], wantHeader)
	}
	if fields := strings.Split(lines[1], ","); fields[3] != "complete" {
		t.Fatalf("uniform-mixing row renders topology %q, want \"complete\"", fields[3])
	}
	if cells := sweep.Cells(); cells[0].Topology != "complete" {
		t.Fatalf("cell topology %q, want \"complete\"", cells[0].Topology)
	}
}

// TestCLIRejectsRemovedFlags: removed flags and engine names fail with
// the usage exit status instead of running, so an old command line never
// silently changes meaning. The -batch flags had no effect since every
// replicate became its own task; fetsim's -jobs is now -workers, and
// the parallel engine is the fast engine with -parallelism shards. The
// message names the replacement (replace) where there is one.
func TestCLIRejectsRemovedFlags(t *testing.T) {
	bin := buildCLITools(t)
	for _, tc := range []struct {
		tool    string
		args    []string
		replace string
	}{
		{"fetsim", []string{"-n", "256", "-replicates", "4", "-batch", "32"}, ""},
		{"fetsweep", []string{"-ns", "256", "-replicates", "4", "-batch", "32"}, ""},
		{"fetsim", []string{"-n", "256", "-replicates", "4", "-jobs", "2"}, "-workers"},
		{"fetsim", []string{"-n", "256", "-engine", "parallel"}, "-parallelism"},
		{"fetsweep", []string{"-ns", "256", "-replicates", "4", "-engines", "parallel"}, `"fast"`},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, tc.tool), tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s %v: %v, want exit status 2\n%s", tc.tool, tc.args, err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), tc.replace) {
			t.Errorf("%s %v: stderr does not name %s:\n%s", tc.tool, tc.args, tc.replace, stderr.Bytes())
		}
	}
}

// runCLIGolden executes a built CLI tool and returns its combined
// output, tolerating exit code 1 — fetsim reports "not all replicates
// converged" through its exit status, and the sparse goldens were
// deliberately captured at short horizons where that is the expected
// outcome. Any other failure is a real error.
func runCLIGolden(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
	}
	return out
}

// TestGoldenSparseTopologyByteIdentical: the sparse-topology regression
// guard for the CSR gather rewrite. The three fixtures were captured
// from the per-neighbor-draw tree at fixed seeds; the batched-RNG path
// (packed rows, bind-time whole-round popcounts, deferred homogeneous
// jumps) must reproduce every byte — the rewrite is stream-exact, not
// just distributionally equal.
func TestGoldenSparseTopologyByteIdentical(t *testing.T) {
	bin := buildCLITools(t)
	sparseStudy := []string{"-n", "1024", "-seed", "11", "-replicates", "8", "-init", "half",
		"-topology", "random-regular:8", "-rounds", "96"}
	cases := []struct {
		golden string
		tool   string
		args   []string
		// spread, when set, reruns the case at 4 workers: the output must
		// equal the golden up to the header's worker count.
		spread []string
	}{
		{"golden_sparse_fetsim.txt", "fetsim",
			append(sparseStudy[:len(sparseStudy):len(sparseStudy)], "-workers", "1"),
			append(sparseStudy[:len(sparseStudy):len(sparseStudy)], "-workers", "4")},
		{"golden_sparse_fetsim_traj.txt", "fetsim", []string{
			"-n", "512", "-seed", "3", "-init", "half",
			"-topology", "dynamic:8:0.2", "-trajectory", "-rounds", "64"}, nil},
		{"golden_sparse_fetsweep.csv", "fetsweep", []string{
			"-ns", "256,1024", "-replicates", "8", "-scenarios", "worst-case",
			"-topologies", "random-regular:8,small-world:4:0.1,dynamic:8:0.2",
			"-seed", "9", "-workers", "4", "-rounds", "120", "-format", "csv"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out := runCLIGolden(t, filepath.Join(bin, tc.tool), tc.args...)
			if !bytes.Equal(out, golden) {
				t.Fatalf("%s output diverged from the pre-rewrite golden:\n--- golden\n%s\n--- got\n%s",
					tc.tool, golden, out)
			}
			if tc.spread == nil {
				return
			}
			out = runCLIGolden(t, filepath.Join(bin, tc.tool), tc.spread...)
			if want := goldenAtWorkers(t, golden, 4); !bytes.Equal(out, want) {
				t.Fatalf("%s %v output diverged from the golden:\n--- want\n%s\n--- got\n%s", tc.tool, tc.spread, want, out)
			}
		})
	}
}

// TestCheckCellAllocationFree: fetserve's Resolve runs the admissibility
// rule on every request, cache hits included, so admitting a cell must
// not allocate.
func TestCheckCellAllocationFree(t *testing.T) {
	async, ok := ScenarioByName("async")
	if !ok {
		t.Fatal("async is not a preset")
	}
	sparse, ok := ScenarioByName("sparse-regular")
	if !ok {
		t.Fatal("sparse-regular is not a preset")
	}
	cases := []struct {
		engine EngineKind
		sc     Scenario
		t      Topology
	}{
		{EngineMarkovChain, Scenario{}, nil},
		{EngineAggregate, Scenario{}, CompleteTopology()},
		{EngineAggregateSparse, sparse, sparse.Topology},
		{EngineAgentFast, Scenario{}, Ring(2)},
		{EngineAgentFast, async, nil},
	}
	for _, c := range cases {
		if err := checkCell(c.engine, c.sc, c.t); err != nil {
			t.Fatalf("%s × %s: %v", EngineName(c.engine), TopologyName(c.t), err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = checkCell(c.engine, c.sc, c.t) }); allocs != 0 {
			t.Errorf("%s × %s: %v allocs per admitted cell, want 0", EngineName(c.engine), TopologyName(c.t), allocs)
		}
	}
}
