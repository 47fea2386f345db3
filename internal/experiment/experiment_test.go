package experiment

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("table has %d experiments, want 20", len(all))
	}
	// IDs must be sorted. E02–E18 reproduce paper artifacts and E19–E22
	// are documented extensions; the sweep-based experiments E01, E13 and
	// E23 are listed by the module root (they build on the public Sweep
	// layer), so they are absent from this package's own table — the
	// root package's experiment tests check the full set of 23.
	want := []string{
		"E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09",
		"E10", "E11", "E12", "E14", "E15", "E16", "E17", "E18",
		"E19", "E20", "E21", "E22",
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d has ID %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %s has incomplete metadata: %+v", e.ID, e)
		}
	}
}

func TestLookup(t *testing.T) {
	if rep := NewReport(All(), "E02"); rep.ID != "E02" || rep.PaperRef != "Figure 1a" || rep.Title == "" {
		t.Fatalf("E02 report header %+v", rep)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewReport accepted E99")
		}
	}()
	NewReport(All(), "E99")
}

// TestAllExperimentsRunQuick executes every experiment in the table at the
// smoke scale (Quick sizes with the heavy-tail sweeps capped): the
// harness's end-to-end integration test, fast enough for `go test ./...`.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds; skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(Config{Seed: 42, Smoke: true})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report ID %q for experiment %q", rep.ID, e.ID)
			}
			if len(rep.Sections) == 0 && len(rep.Notes) == 0 {
				t.Fatalf("%s produced an empty report", e.ID)
			}
			for _, sec := range rep.Sections {
				if sec.Name == "" {
					t.Fatalf("%s has an unnamed section", e.ID)
				}
				if sec.Table == nil && sec.Text == "" {
					t.Fatalf("%s section %q has no content", e.ID, sec.Name)
				}
			}
			for _, note := range rep.Notes {
				if strings.Contains(note, "WARNING") {
					t.Errorf("%s raised: %s", e.ID, note)
				}
			}
		})
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{ID: "X", Title: "t"}
	rep.AddText("map", "...")
	rep.AddNote("n = %d", 7)
	if len(rep.Sections) != 1 || rep.Sections[0].Text != "..." {
		t.Fatalf("sections %+v", rep.Sections)
	}
	if len(rep.Notes) != 1 || rep.Notes[0] != "n = 7" {
		t.Fatalf("notes %+v", rep.Notes)
	}
}

func TestParallelTimesOrderAndCompleteness(t *testing.T) {
	cfg := Config{Workers: 4}
	out := parallelTimes(cfg, 100, func(trial int) float64 {
		return float64(trial * trial)
	})
	if len(out) != 100 {
		t.Fatalf("len %d", len(out))
	}
	for i, v := range out {
		if v != float64(i*i) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

func TestParallelTimesSerialPath(t *testing.T) {
	cfg := Config{Workers: 1}
	out := parallelTimes(cfg, 5, func(trial int) float64 { return float64(trial) })
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("serial out[%d] = %v", i, v)
		}
	}
}

func TestPickQuick(t *testing.T) {
	if got := Pick(Config{Quick: true}, 10, 2); got != 2 {
		t.Fatalf("quick pick %d", got)
	}
	if got := Pick(Config{Smoke: true}, 10, 2); got != 2 {
		t.Fatalf("smoke pick %d", got)
	}
	if got := Pick(Config{}, 10, 2); got != 10 {
		t.Fatalf("full pick %d", got)
	}
}

func TestFormatExits(t *testing.T) {
	out := formatExits(map[string]int{"Green1": 97, "Purple1": 3})
	if out != "Green1 97%, Purple1 3%" {
		t.Fatalf("formatExits: %q", out)
	}
	// Ties render in name order.
	if out := formatExits(map[string]int{"timeout": 1, "Red1": 1, "Green1": 2}); out != "Green1 50%, Red1 25%, timeout 25%" {
		t.Fatalf("formatExits ties: %q", out)
	}
}

func TestConfigWorkers(t *testing.T) {
	if got := (Config{Workers: 3}).workers(); got != 3 {
		t.Fatalf("workers = %d", got)
	}
	if got := (Config{}).workers(); got < 1 {
		t.Fatalf("default workers = %d", got)
	}
}
