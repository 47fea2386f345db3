package passivespread_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"passivespread"
)

// TestCellAdmissibilityAgreesAcrossLayers: NewSweep, fetserve's
// Resolve and (for the Options-expressible worst case) NewStudy accept
// and reject exactly the same engine × topology × scenario cells,
// because all three ask one rule. A pinned scenario is judged on its
// pinned topology, so it takes no topology axis here; a custom-runner
// scenario ignores the engine, so it takes only the default one.
func TestCellAdmissibilityAgreesAcrossLayers(t *testing.T) {
	engines := []string{"fast", "exact", "aggregate", "aggregate-sparse", "chain"}
	topologies := []string{"complete", "ring:2", "random-regular:8"}
	h := newServeHandler(t, passivespread.ServeConfig{Workers: 1})
	const n, rounds = 64, 16
	accepted := map[string]bool{}
	for _, scName := range []string{"worst-case", "noisy", "async", "sparse-regular"} {
		sc, ok := passivespread.ScenarioByName(scName)
		if !ok {
			t.Fatalf("%s is not a preset", scName)
		}
		engs, tops := engines, topologies
		if sc.Run != nil {
			engs = []string{"-"}
		}
		if sc.Topology != nil {
			tops = []string{"-"}
		}
		for _, e := range engs {
			for _, tp := range tops {
				cell := fmt.Sprintf("%s × %s × %s", scName, e, tp)
				spec := passivespread.SweepSpec{Ns: []int{n}, Replicates: 1, MaxRounds: rounds, Scenarios: []passivespread.Scenario{sc}}
				body := fmt.Sprintf(`{"n":%d,"replicates":1,"max_rounds":%d,"scenario":%q`, n, rounds, scName)
				var opts passivespread.Options
				if e != "-" {
					k, err := passivespread.ParseEngine(e)
					if err != nil {
						t.Fatal(err)
					}
					spec.Engines = []passivespread.EngineKind{k}
					opts.Engine = k
					body += fmt.Sprintf(`,"engine":%q`, e)
				}
				if tp != "-" {
					topology, err := passivespread.ParseTopology(tp)
					if err != nil {
						t.Fatal(err)
					}
					spec.Topologies = []passivespread.Topology{topology}
					opts.Topology = topology
					body += fmt.Sprintf(`,"topology":%q`, tp)
				}
				body += "}"

				_, err := passivespread.NewSweep(spec)
				sweepOK := err == nil
				if err != nil && !errors.Is(err, passivespread.ErrInvalidOptions) {
					t.Errorf("%s: NewSweep error %v does not wrap ErrInvalidOptions", cell, err)
				}
				w := servePost(t, h, "/v1/tools/fet.study.run", body)
				switch w.Code {
				case http.StatusOK:
				case http.StatusBadRequest:
					if !strings.Contains(w.Body.String(), `"code":"invalidArgument"`) {
						t.Errorf("%s: 400 without invalidArgument: %s", cell, w.Body)
					}
				default:
					t.Fatalf("%s: serve status %d: %s", cell, w.Code, w.Body)
				}
				serveOK := w.Code == http.StatusOK
				if sweepOK != serveOK {
					t.Errorf("%s: NewSweep accepts=%v (%v), fet.study.run accepts=%v (%s)", cell, sweepOK, err, serveOK, w.Body)
				}
				if scName == "worst-case" {
					opts.N, opts.MaxRounds = n, rounds
					_, err := passivespread.NewStudy(passivespread.StudySpec{Replicates: 1, Options: opts})
					if err != nil && !errors.Is(err, passivespread.ErrInvalidOptions) {
						t.Errorf("%s: NewStudy error %v does not wrap ErrInvalidOptions", cell, err)
					}
					if studyOK := err == nil; studyOK != sweepOK {
						t.Errorf("%s: NewStudy accepts=%v (%v), NewSweep accepts=%v", cell, studyOK, err, sweepOK)
					}
				}
				accepted[cell] = sweepOK
			}
		}
	}
	// Anchor the agreed verdicts on the paper's regimes, so the layers
	// cannot agree on a wrong rule.
	for cell, want := range map[string]bool{
		"worst-case × fast × ring:2":                       true,
		"worst-case × chain × complete":                    true,
		"worst-case × chain × ring:2":                      false,
		"worst-case × aggregate × random-regular:8":        false,
		"worst-case × aggregate-sparse × complete":         false,
		"worst-case × aggregate-sparse × ring:2":           false,
		"worst-case × aggregate-sparse × random-regular:8": true,
		"noisy × chain × complete":                         false,
		"noisy × aggregate × complete":                     true,
		"async × - × complete":                             true,
		"async × - × ring:2":                               false,
		"sparse-regular × aggregate-sparse × -":            true,
		"sparse-regular × aggregate × -":                   false,
		"sparse-regular × chain × -":                       false,
		"sparse-regular × fast × -":                        true,
	} {
		got, ok := accepted[cell]
		if !ok {
			t.Fatalf("cell %q not in the table", cell)
		}
		if got != want {
			t.Errorf("%s: accepted=%v, want %v", cell, got, want)
		}
	}
}

// TestPinnedSweepCellIsServedCell: a sweep cell whose scenario pins a
// degree-annealed topology is the very cell fet.study.run serves — same
// canonical key (also as fet.sweep.inspect lists it), same convergence
// answer.
func TestPinnedSweepCellIsServedCell(t *testing.T) {
	var scs []passivespread.Scenario
	for _, name := range []string{"sparse-regular", "sparse-dynamic"} {
		sc, ok := passivespread.ScenarioByName(name)
		if !ok {
			t.Fatalf("%s is not a preset", name)
		}
		scs = append(scs, sc)
	}
	const replicates = 6
	sweep, err := passivespread.NewSweep(passivespread.SweepSpec{
		Ns:         []int{256},
		Engines:    []passivespread.EngineKind{passivespread.EngineAggregateSparse},
		Scenarios:  scs,
		Replicates: replicates,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	keys := sweep.CellKeys()
	if len(report.Rows) != len(keys) {
		t.Fatalf("%d rows for %d keys", len(report.Rows), len(keys))
	}
	h := newServeHandler(t, passivespread.ServeConfig{Workers: 1})
	w := servePost(t, h, "/v1/tools/fet.sweep.inspect",
		fmt.Sprintf(`{"ns":[256],"engines":["aggregate-sparse"],"scenarios":["sparse-regular","sparse-dynamic"],"replicates":%d,"seed":9}`, replicates))
	if w.Code != http.StatusOK {
		t.Fatalf("inspect: %d %s", w.Code, w.Body)
	}
	var insp struct {
		Rows []struct {
			Key string `json:"key"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &insp); err != nil {
		t.Fatal(err)
	}
	if len(insp.Rows) != len(keys) {
		t.Fatalf("inspect lists %d cells, sweep plans %d", len(insp.Rows), len(keys))
	}
	for i, key := range keys {
		if insp.Rows[i].Key != key.Canonical() {
			t.Errorf("cell %d: inspect key %s, sweep key %s", i, insp.Rows[i].Key, key.Canonical())
		}
		body := fmt.Sprintf(`{"scenario":%q,"engine":"aggregate-sparse","n":%d,"replicates":%d,"seed":%d}`,
			key.Scenario, key.N, replicates, key.Seed)
		w := servePost(t, h, "/v1/tools/fet.study.run", body)
		if w.Code != http.StatusOK {
			t.Fatalf("cell %d: %d %s", i, w.Code, w.Body)
		}
		var ans struct {
			Key       string `json:"key"`
			Converged int    `json:"converged"`
			Rounds    struct {
				Mean float64 `json:"mean"`
			} `json:"rounds"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
			t.Fatal(err)
		}
		if ans.Key != key.Canonical() {
			t.Errorf("cell %d: served key %s, sweep key %s", i, ans.Key, key.Canonical())
		}
		row := report.Rows[i]
		if row.Converged != ans.Converged || row.Mean != ans.Rounds.Mean {
			t.Errorf("cell %d: sweep row converged %d mean %v, served converged %d mean %v",
				i, row.Converged, row.Mean, ans.Converged, ans.Rounds.Mean)
		}
	}
}

// TestEngineVocabularyRoundTrip: every engine parses from its CLI flag
// and from its display name, and unknown or removed names are errors.
func TestEngineVocabularyRoundTrip(t *testing.T) {
	for flag, k := range map[string]passivespread.EngineKind{
		"fast":             passivespread.EngineAgentFast,
		"exact":            passivespread.EngineAgentExact,
		"aggregate":        passivespread.EngineAggregate,
		"aggregate-sparse": passivespread.EngineAggregateSparse,
		"chain":            passivespread.EngineMarkovChain,
	} {
		for _, name := range []string{flag, passivespread.EngineName(k)} {
			if got, err := passivespread.ParseEngine(name); err != nil || got != k {
				t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for _, bad := range []string{"", "quantum", "Fast", "agent-chain", "markov", "parallel", "agent-parallel"} {
		if k, err := passivespread.ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) = %v, want an error", bad, k)
		}
	}
}
