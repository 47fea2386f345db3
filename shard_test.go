package passivespread

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"passivespread/internal/checkpoint"
)

// parseShardValid and parseShardInvalid are TestParseShard's tables,
// and FuzzParseShard's seed corpus.
var (
	parseShardValid = map[string]Shard{
		"1/1":   {1, 1},
		"1/4":   {1, 4},
		"4/4":   {4, 4},
		"7/128": {7, 128},
	}
	parseShardInvalid = []string{
		"", "1", "/", "1/", "/4", "0/4", "5/4", "1/0", "-1/4", "1/-4",
		"+1/4", "1/+4", "1/4/2", "a/b", " 1/4", "1/4 ", "1 /4", "1/ 4",
		"1.5/4", "0x1/4", "01/2", "1/02", "007/8", "0/0",
	}
)

func TestParseShard(t *testing.T) {
	for s, want := range parseShardValid {
		got, err := ParseShard(s)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Errorf("ParseShard(%q).String() = %q", s, got.String())
		}
	}
	for _, s := range parseShardInvalid {
		if sh, err := ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q) = %v, want error", s, sh)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("ParseShard(%q) error %v is not typed ErrInvalidOptions", s, err)
		}
	}
}

func TestNewSweepShardValidation(t *testing.T) {
	for _, sh := range []Shard{{0, 4}, {5, 4}, {1, 0}, {-1, -1}} {
		spec := smallSweepSpec(1)
		spec.Shard = sh
		if _, err := NewSweep(spec); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("NewSweep with shard %+v: err = %v, want ErrInvalidOptions", sh, err)
		}
	}
}

// TestShardPartition pins the partition law: shard i of m owns exactly
// the cells c with c mod m == i−1, the shards are disjoint, their
// union is the grid, and the cells a shard reports carry full-grid
// indices and seeds.
func TestShardPartition(t *testing.T) {
	spec := smallSweepSpec(1) // 8 cells
	full, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := full.Cells()
	const m = 3
	owned := map[int]int{}
	for i := 1; i <= m; i++ {
		sharded := spec
		sharded.Shard = Shard{Index: i, Count: m}
		sw, err := NewSweep(sharded)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(rep.Rows), sw.PlannedCells(); got != want {
			t.Fatalf("shard %d/%d: %d rows, planned %d", i, m, got, want)
		}
		if rep.Cells != len(cells) {
			t.Fatalf("shard %d/%d: report.Cells = %d, want full grid %d", i, m, rep.Cells, len(cells))
		}
		for _, row := range rep.Rows {
			if row.Cell%m != i-1 {
				t.Fatalf("shard %d/%d ran cell %d outside its partition class", i, m, row.Cell)
			}
			if prev, dup := owned[row.Cell]; dup {
				t.Fatalf("cell %d ran on shards %d and %d", row.Cell, prev, i)
			}
			owned[row.Cell] = i
			if row.Seed != cells[row.Cell].Seed {
				t.Fatalf("shard %d/%d cell %d seed %d, want full-grid seed %d", i, m, row.Cell, row.Seed, cells[row.Cell].Seed)
			}
		}
	}
	if len(owned) != len(cells) {
		t.Fatalf("shards covered %d of %d cells", len(owned), len(cells))
	}
}

// TestShardOneEqualsUnsharded: m = 1 is the unsharded sweep,
// byte-for-byte.
func TestShardOneEqualsUnsharded(t *testing.T) {
	spec := smallSweepSpec(2)
	unsharded := runSweep(t, spec).CSV()
	spec.Shard = Shard{Index: 1, Count: 1}
	sharded := runSweep(t, spec).CSV()
	if unsharded != sharded {
		t.Fatalf("shard 1/1 CSV differs from unsharded:\n%s\nvs\n%s", sharded, unsharded)
	}
}

// TestShardCountBeyondCells: with m larger than the grid, high shards
// own nothing and still run (and merge) cleanly.
func TestShardCountBeyondCells(t *testing.T) {
	spec := SweepSpec{
		Ns:         []int{64, 128},
		Engines:    []EngineKind{EngineMarkovChain},
		Scenarios:  mustScenarios("worst-case"),
		Replicates: 2,
		Seed:       7,
	} // 2 cells
	single := runSweep(t, spec)
	const m = 5
	var artifacts []*ShardArtifact
	empty := 0
	for i := 1; i <= m; i++ {
		sharded := spec
		sharded.Shard = Shard{Index: i, Count: m}
		sw, err := NewSweep(sharded)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, m, err)
		}
		if len(rep.Rows) == 0 {
			empty++
			if got := rep.CSV(); !strings.HasPrefix(got, "cell,") || strings.Count(got, "\n") != 1 {
				t.Fatalf("empty shard CSV should be header-only, got %q", got)
			}
		}
		art, err := sw.ShardArtifact(rep)
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, art)
	}
	if empty != m-2 {
		t.Fatalf("%d empty shards, want %d", empty, m-2)
	}
	merged, err := MergeShards(artifacts, true)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CSV() != single.CSV() {
		t.Fatalf("merged CSV differs from single runner")
	}
}

// TestMergeShardsByteIdentical is the fabric's headline contract: for
// any shard count, joining the shard artifacts reproduces the
// single-runner CSV and JSON byte for byte.
func TestMergeShardsByteIdentical(t *testing.T) {
	spec := smallSweepSpec(0) // 8 cells, default pool
	single := runSweep(t, spec)
	singleCSV := single.CSV()
	singleJSON, err := single.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4, 8} {
		var artifacts []*ShardArtifact
		for i := 1; i <= m; i++ {
			sharded := spec
			sharded.Shard = Shard{Index: i, Count: m}
			sharded.Workers = 1 + i%3 // shards at different pool sizes still merge identically
			sw, err := NewSweep(sharded)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			art, err := sw.ShardArtifact(rep)
			if err != nil {
				t.Fatal(err)
			}
			artifacts = append(artifacts, art)
		}
		// Artifacts round-trip through their wire form, as in CI.
		for j, a := range artifacts {
			data, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseShardArtifact(data)
			if err != nil {
				t.Fatalf("m=%d shard %d: %v", m, j+1, err)
			}
			artifacts[j] = back
		}
		merged, err := MergeShards(artifacts, true)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if merged.CSV() != singleCSV {
			t.Fatalf("m=%d: merged CSV differs from single runner", m)
		}
		mergedJSON, err := merged.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(mergedJSON) != string(singleJSON) {
			t.Fatalf("m=%d: merged JSON differs from single runner", m)
		}
	}
}

// chainShardArtifacts builds a fresh 2-shard split of a 3-cell chain
// grid for tamper tests (regenerated per case so mutations don't leak).
func chainShardArtifacts(t *testing.T) []*ShardArtifact {
	t.Helper()
	spec := SweepSpec{
		Ns:         []int{64, 128, 256},
		Engines:    []EngineKind{EngineMarkovChain},
		Scenarios:  mustScenarios("worst-case"),
		Replicates: 2,
		Seed:       13,
	}
	var artifacts []*ShardArtifact
	for i := 1; i <= 2; i++ {
		sharded := spec
		sharded.Shard = Shard{Index: i, Count: 2}
		sw, err := NewSweep(sharded)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		art, err := sw.ShardArtifact(rep)
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, art)
	}
	return artifacts
}

func TestMergeShardsDetectsConflicts(t *testing.T) {
	cases := []struct {
		name   string
		verify bool
		mutate func([]*ShardArtifact) []*ShardArtifact
		want   string
	}{
		{"no artifacts", false, func(a []*ShardArtifact) []*ShardArtifact { return nil }, "no artifacts"},
		{"stale version", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[1].Version = "fetshard/v0"
			return a
		}, "version"},
		{"header disagreement", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[1].Seed++
			return a
		}, "disagrees"},
		{"malformed shard", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Shard = "one/two"
			return a
		}, "shard"},
		{"shard count disagreement", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[1].Shard = "2/3"
			return a
		}, "disagrees with count"},
		{"overlapping shards", false, func(a []*ShardArtifact) []*ShardArtifact {
			return []*ShardArtifact{a[0], a[0], a[1]}
		}, "overlapping shards"},
		{"missing shard", false, func(a []*ShardArtifact) []*ShardArtifact {
			return a[:1]
		}, "missing shard 2/2"},
		{"cell outside grid", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Rows[0].Cell = 99
			a[0].Rows[0].Row.Cell = 99
			return a
		}, "outside grid"},
		{"cell in wrong partition class", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Rows = append(a[0].Rows, a[1].Rows[0])
			return a
		}, "belongs to shard"},
		{"duplicate cell", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Rows = append(a[0].Rows, a[0].Rows[0])
			return a
		}, "overlapping coverage"},
		{"incomplete coverage", false, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Rows = a[0].Rows[:1]
			return a
		}, "incomplete coverage"},
		{"tampered row body", true, func(a []*ShardArtifact) []*ShardArtifact {
			a[1].Rows[0].Row.Mean++
			return a
		}, "digest"},
		{"key/row disagreement", true, func(a []*ShardArtifact) []*ShardArtifact {
			// Recompute the digest so only the key check can catch it.
			a[1].Rows[0].Row.Seed++
			body, err := sweepRowBody(a[1].Rows[0].Row)
			if err != nil {
				panic(err)
			}
			a[1].Rows[0].Digest = checkpoint.HashHex(string(body))
			return a
		}, "disagrees with its row"},
		{"unparseable key", true, func(a []*ShardArtifact) []*ShardArtifact {
			a[0].Rows[0].Key = "fetcell/v1 garbage"
			return a
		}, "key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			artifacts := tc.mutate(chainShardArtifacts(t))
			_, err := MergeShards(artifacts, tc.verify)
			if err == nil {
				t.Fatal("merge succeeded")
			}
			if !errors.Is(err, ErrShardMerge) {
				t.Fatalf("error %v is not typed ErrShardMerge", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Structural-only merge accepts what -verify rejects: the digest
	// tamper is invisible without content-address verification.
	artifacts := chainShardArtifacts(t)
	artifacts[1].Rows[0].Row.Mean++
	if _, err := MergeShards(artifacts, false); err != nil {
		t.Fatalf("structural merge rejected a digest-only tamper: %v", err)
	}
}

// TestSweepCheckpointResume is the durability contract: a run killed
// mid-grid (modeled by context cancellation, which like SIGKILL leaves
// only completed-cell envelopes behind) resumes from its checkpoint
// directory to output byte-identical to an uninterrupted run.
func TestSweepCheckpointResume(t *testing.T) {
	spec := smallSweepSpec(2)
	clean := runSweep(t, spec).CSV()

	dir := t.TempDir()
	ck := spec
	ck.CheckpointDir = dir
	interrupted, err := NewSweep(ck)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	for range interrupted.Stream(ctx) {
		if delivered++; delivered == 3 {
			cancel() // kill mid-grid: 3 of 8 cells delivered (and checkpointed)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 || len(files) >= 8 {
		t.Fatalf("interrupted run left %d checkpoints, want in [3, 8)", len(files))
	}

	resumed := runSweep(t, ck).CSV()
	if resumed != clean {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", resumed, clean)
	}
}

// TestSweepCheckpointSkipsCompletedCells proves resume actually skips:
// a second run over a fully checkpointed grid rewrites nothing (every
// fresh completion writes its envelope before delivery, so untouched
// mtimes mean no cell re-ran) and reproduces the rows exactly.
func TestSweepCheckpointSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	spec := smallSweepSpec(4)
	spec.CheckpointDir = dir
	first := runSweep(t, spec)
	mtimes := checkpointMTimes(t, dir)
	if len(mtimes) != 8 {
		t.Fatalf("%d checkpoints after full run, want 8", len(mtimes))
	}

	second := runSweep(t, spec)
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("resumed rows differ from first run")
	}
	for name, mt := range checkpointMTimes(t, dir) {
		if !mt.Equal(mtimes[name]) {
			t.Fatalf("checkpoint %s was rewritten on resume", name)
		}
	}

	// A corrupted envelope is never trusted: the cell re-runs and the
	// rows still match.
	var victim string
	for name := range mtimes {
		victim = name
		break
	}
	if err := os.WriteFile(filepath.Join(dir, victim), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := runSweep(t, spec)
	if !reflect.DeepEqual(first.Rows, third.Rows) {
		t.Fatal("rows differ after a corrupted checkpoint forced a re-run")
	}
	if checkpointMTimes(t, dir)[victim].Equal(mtimes[victim]) {
		t.Fatal("corrupted checkpoint was not rewritten")
	}
}

func checkpointMTimes(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]time.Time, len(files))
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = info.ModTime()
	}
	return out
}

// TestShardedCheckpointedSweepComposes runs the full fabric in-process:
// 4 checkpointed shard runners (one resumed after an interruption),
// artifacts merged with verification, output byte-identical to one
// runner.
func TestShardedCheckpointedSweepComposes(t *testing.T) {
	spec := smallSweepSpec(2)
	single := runSweep(t, spec).CSV()
	const m = 4
	var artifacts []*ShardArtifact
	for i := 1; i <= m; i++ {
		sharded := spec
		sharded.Shard = Shard{Index: i, Count: m}
		sharded.CheckpointDir = filepath.Join(t.TempDir(), fmt.Sprintf("shard-%d", i))
		if i == 1 {
			// Interrupt shard 1 immediately; its real run below resumes.
			sw, err := NewSweep(sharded)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			for range sw.Stream(ctx) {
				cancel()
			}
			cancel()
		}
		sw, err := NewSweep(sharded)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		art, err := sw.ShardArtifact(rep)
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, art)
	}
	merged, err := MergeShards(artifacts, true)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CSV() != single {
		t.Fatal("fabric output differs from single runner")
	}
}
