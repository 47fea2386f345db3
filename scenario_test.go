package passivespread

import (
	"context"
	"errors"
	"slices"
	"testing"
)

func TestScenarioRegistryBuiltins(t *testing.T) {
	// Sorted by name: listings must be stable for docs and for
	// fetserve's fet.scenarios.list.
	want := []string{
		"async", "clean-start", "clocked-local", "clocked-shared",
		"half-split", "multi-source", "noisy", "simple-trend",
		"sparse-dynamic", "sparse-regular", "sparse-ring", "sparse-small-world",
		"trend-flip", "uniform", "voter-control", "worst-case",
	}
	all := Scenarios()
	got := make([]string, len(all))
	for i, sc := range all {
		got[i] = sc.Name
		if sc.Description == "" {
			t.Fatalf("scenario %q has no description", sc.Name)
		}
		if byName, ok := ScenarioByName(sc.Name); !ok || byName.Description != sc.Description {
			t.Fatalf("ScenarioByName(%q) = %+v, %v", sc.Name, byName, ok)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Scenarios() = %q, want %q", got, want)
	}
	all[0].Name = "mutated"
	if Scenarios()[0].Name != want[0] {
		t.Fatal("Scenarios() shares its backing array with the preset table")
	}
	// fetserve resolves a preset on every request, cache hits included.
	if allocs := testing.AllocsPerRun(100, func() { ScenarioByName(DefaultScenario) }); allocs != 0 {
		t.Fatalf("ScenarioByName allocates %v times per call", allocs)
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Fatal("ScenarioByName returned a scenario that is not a preset")
	}
	if sc, _ := ScenarioByName(DefaultScenario); sc.Init != nil || sc.KeepMemories || sc.Run != nil {
		t.Fatalf("default scenario is not the zero-value worst case: %+v", sc)
	}
}

// TestPresetTables checks the two static tables in place of the
// registration-time panics they replaced: scenario names and experiment
// IDs are unique (strictly increasing), and every preset validates.
func TestPresetTables(t *testing.T) {
	for i, sc := range presets {
		if err := sc.validate(); err != nil {
			t.Errorf("preset %q: %v", sc.Name, err)
		}
		if i > 0 && presets[i-1].Name >= sc.Name {
			t.Errorf("preset %q follows %q: names must be unique and sorted", sc.Name, presets[i-1].Name)
		}
	}
	exps := Experiments()
	for i, e := range exps {
		if i > 0 && exps[i-1].ID >= e.ID {
			t.Errorf("experiment %s follows %s: IDs must be unique", e.ID, exps[i-1].ID)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name      string
		scenarios []Scenario
	}{
		{"no name", []Scenario{{}}},
		{"shared name", []Scenario{{Name: "twin"}, {Name: "twin", NoiseEps: 0.1}}},
		{"noise out of range", []Scenario{{Name: "bad-noise", NoiseEps: 0.5}}},
		{"flip out of range", []Scenario{{Name: "bad-flip", FlipFrac: 1}}},
		{"negative sources", []Scenario{{Name: "bad-sources", Sources: -1}}},
		{"label without runner", []Scenario{{Name: "bad-label", EngineLabel: "async"}}},
	}
	for _, tc := range cases {
		_, err := NewSweep(SweepSpec{Ns: []int{64}, Scenarios: tc.scenarios, Replicates: 1})
		if err == nil {
			t.Errorf("%s: NewSweep accepted %+v", tc.name, tc.scenarios)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: error %v does not wrap ErrInvalidOptions", tc.name, err)
		}
	}
}

func TestCustomScenarioSweep(t *testing.T) {
	sc := Scenario{
		Name:        "custom",
		Description: "uniform start under light noise (test preset)",
		Init:        UniformInit(),
		NoiseEps:    0.05,
	}
	report := runSweep(t, SweepSpec{
		Ns:         []int{64},
		Scenarios:  []Scenario{sc},
		Replicates: 3,
		Seed:       8,
	})
	if report.Rows[0].Scenario != sc.Name || report.Rows[0].Replicates != 3 {
		t.Fatalf("custom scenario row: %+v", report.Rows[0])
	}
	if _, ok := ScenarioByName(sc.Name); ok {
		t.Fatal("running a custom scenario added it to the presets")
	}
}

// TestScenarioTrendFlip checks that the flip scenario actually flips:
// convergence is judged against the post-flip correct opinion, so the
// final fraction must sit at the flipped value.
func TestScenarioTrendFlip(t *testing.T) {
	sc, ok := ScenarioByName("trend-flip")
	if !ok {
		t.Fatal("trend-flip is not a preset")
	}
	n := 256
	cfg := sc.config(n, SampleSize(n), DefaultMaxRounds(n), EngineAgentFast, nil, 21)
	if cfg.FlipCorrectAt == 0 {
		t.Fatal("trend-flip built a config with no flip")
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("trend-flip did not re-stabilize: %+v", res)
	}
	// Correct starts at 1 and flips to 0 mid-run: converged means x = 0.
	if res.FinalX != 0 {
		t.Fatalf("final x = %v after flip to correct-0", res.FinalX)
	}
}

// TestScenarioChainCompatibility pins which presets the Markov-chain
// pseudo-engine accepts.
func TestScenarioChainCompatibility(t *testing.T) {
	compatible := map[string]bool{
		"worst-case":   true,
		"half-split":   true,
		"clean-start":  true, // memories are irrelevant to the chain
		"uniform":      false,
		"noisy":        false,
		"trend-flip":   false,
		"multi-source": false,
		"simple-trend": false,
		"async":        false,
	}
	for name, want := range compatible {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		if got := sc.chainCompatible(); got != want {
			t.Errorf("%s chainCompatible = %v, want %v", name, got, want)
		}
	}
}
