package passivespread

import (
	"context"
	"errors"
	"sort"
	"testing"
)

func TestScenarioRegistryBuiltins(t *testing.T) {
	// Sorted by name: listings must be stable for docs and for
	// fetserve's fet.scenarios.list, regardless of registration order.
	want := []string{
		"async", "clean-start", "clocked-local", "clocked-shared",
		"half-split", "multi-source", "noisy", "simple-trend",
		"sparse-dynamic", "sparse-regular", "sparse-ring", "sparse-small-world",
		"trend-flip", "uniform", "voter-control", "worst-case",
	}
	all := Scenarios()
	if len(all) < len(want) {
		t.Fatalf("registry has %d scenarios, want at least %d", len(all), len(want))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Fatal("Scenarios() is not sorted by name")
	}
	names := make(map[string]bool, len(all))
	for _, sc := range all {
		names[sc.Name] = true
		if sc.Description == "" {
			t.Fatalf("scenario %q has no description", sc.Name)
		}
	}
	for _, name := range want {
		if !names[name] {
			t.Fatalf("built-in scenario %q missing from Scenarios()", name)
		}
		if _, ok := ScenarioByName(name); !ok {
			t.Fatalf("ScenarioByName(%q) missing", name)
		}
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Fatal("ScenarioByName returned an unregistered scenario")
	}
	if sc, _ := ScenarioByName(DefaultScenario); sc.Init != nil || sc.KeepMemories || sc.Run != nil {
		t.Fatalf("default scenario is not the zero-value worst case: %+v", sc)
	}
}

func TestRegisterScenarioValidation(t *testing.T) {
	cases := []Scenario{
		{},                                        // no name
		{Name: "worst-case"},                      // duplicate
		{Name: "bad-noise", NoiseEps: 0.5},        // eps out of range
		{Name: "bad-flip", FlipFrac: 1},           // flip out of range
		{Name: "bad-sources", Sources: -1},        // negative sources
		{Name: "bad-label", EngineLabel: "async"}, // label without runner
	}
	for _, sc := range cases {
		if err := RegisterScenario(sc); err == nil {
			t.Errorf("RegisterScenario accepted %+v", sc)
		} else if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("error %v does not wrap ErrInvalidOptions", err)
		}
	}
}

func TestRegisterScenarioCustom(t *testing.T) {
	name := "test-custom-scenario"
	if err := RegisterScenario(Scenario{
		Name:        name,
		Description: "uniform start under light noise (test preset)",
		Init:        UniformInit(),
		NoiseEps:    0.05,
	}); err != nil {
		t.Fatal(err)
	}
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatal("custom scenario not retrievable")
	}
	report := runSweep(t, SweepSpec{
		Ns:         []int{64},
		Scenarios:  []Scenario{sc},
		Replicates: 3,
		Seed:       8,
	})
	if report.Rows[0].Scenario != name || report.Rows[0].Replicates != 3 {
		t.Fatalf("custom scenario row: %+v", report.Rows[0])
	}
}

// TestScenarioTrendFlip checks that the flip scenario actually flips:
// convergence is judged against the post-flip correct opinion, so the
// final fraction must sit at the flipped value.
func TestScenarioTrendFlip(t *testing.T) {
	sc, ok := ScenarioByName("trend-flip")
	if !ok {
		t.Fatal("trend-flip not registered")
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
			t.Fatalf("%s not registered", name)
		}
		if got := sc.chainCompatible(); got != want {
			t.Errorf("%s chainCompatible = %v, want %v", name, got, want)
		}
	}
}
