package passivespread_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"passivespread"
)

func newServeHandler(t testing.TB, cfg passivespread.ServeConfig) http.Handler {
	t.Helper()
	s, err := passivespread.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s.Handler()
}

func servePost(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func serveGet(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestServeDeterminism is the subsystem's acceptance test: for every
// engine (including aggregate-sparse and a dynamic topology) and for a
// custom-runner scenario, the cache-hit answer is byte-identical to
// the cold run, and a second daemon with a different Workers setting
// cold-computes the exact same bytes. The removed parallel engine (no
// tier) is rejected with invalidArgument.
func TestServeDeterminism(t *testing.T) {
	queries := []struct {
		name, body, tier string
	}{
		{"markov-chain", `{"n":512,"engine":"chain","replicates":16,"seed":42}`, "exact"},
		{"aggregate", `{"n":512,"engine":"aggregate","replicates":8,"seed":42}`, "exact"},
		{"aggregate-sparse", `{"n":512,"engine":"aggregate-sparse","topology":"random-regular:8","replicates":6,"seed":7}`, "exact"},
		{"agent-fast", `{"n":128,"engine":"fast","replicates":6,"seed":3}`, "fallback"},
		{"agent-exact", `{"n":96,"engine":"exact","replicates":4,"seed":3}`, "fallback"},
		{"agent-parallel", `{"n":128,"engine":"parallel","replicates":4,"seed":3}`, ""},
		{"dynamic-topology", `{"n":128,"engine":"fast","topology":"dynamic:8:0.1","replicates":4,"seed":9}`, "fallback"},
		{"custom-runner", `{"n":96,"scenario":"async","replicates":4,"seed":5}`, "fallback"},
		{"noisy-overrides", `{"n":128,"scenario":"noisy","noise_eps":0.1,"sources":2,"replicates":4,"seed":11}`, "fallback"},
	}
	daemonA := newServeHandler(t, passivespread.ServeConfig{Workers: 1})
	daemonB := newServeHandler(t, passivespread.ServeConfig{Workers: 8})
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			cold := servePost(t, daemonA, "/v1/tools/fet.study.run", q.body)
			if q.tier == "" {
				if cold.Code != http.StatusBadRequest || !strings.Contains(cold.Body.String(), `"code":"invalidArgument"`) {
					t.Fatalf("removed engine: %d %s, want 400 invalidArgument", cold.Code, cold.Body)
				}
				return
			}
			if cold.Code != http.StatusOK {
				t.Fatalf("cold run: %d %s", cold.Code, cold.Body)
			}
			if tier := cold.Header().Get("X-Fetserve-Tier"); tier != q.tier {
				t.Fatalf("cold tier %q, want %q", tier, q.tier)
			}
			hit := servePost(t, daemonA, "/v1/tools/fet.study.run", q.body)
			if hit.Code != http.StatusOK || hit.Header().Get("X-Fetserve-Tier") != "cache" {
				t.Fatalf("hit: %d, tier %q", hit.Code, hit.Header().Get("X-Fetserve-Tier"))
			}
			if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
				t.Fatalf("cache hit differs from cold run:\n%s\n%s", cold.Body, hit.Body)
			}
			other := servePost(t, daemonB, "/v1/tools/fet.study.run", q.body)
			if other.Code != http.StatusOK {
				t.Fatalf("daemon B: %d %s", other.Code, other.Body)
			}
			if !bytes.Equal(cold.Body.Bytes(), other.Body.Bytes()) {
				t.Fatalf("daemons with different Workers disagree:\n%s\n%s", cold.Body, other.Body)
			}
			var ans struct {
				Key  string `json:"key"`
				Hash string `json:"hash"`
			}
			if err := json.Unmarshal(cold.Body.Bytes(), &ans); err != nil {
				t.Fatal(err)
			}
			key, err := passivespread.ParseCellKey(ans.Key)
			if err != nil {
				t.Fatalf("answer key %q does not parse: %v", ans.Key, err)
			}
			if key.Hash() != ans.Hash {
				t.Fatalf("answer hash %q does not match key %q", ans.Hash, ans.Key)
			}
		})
	}
}

// TestServeCanonicalization: different spellings of the same cell must
// resolve to one cache entry — engine parse names vs display names,
// topology parameter defaults, and explicitly-stated preset defaults.
func TestServeCanonicalization(t *testing.T) {
	h := newServeHandler(t, passivespread.ServeConfig{})
	ell := passivespread.SampleSize(512)
	rounds := passivespread.DefaultMaxRounds(512)
	base := `{"n":512,"engine":"chain","replicates":8,"seed":42}`
	cold := servePost(t, h, "/v1/tools/fet.study.run", base)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	aliases := []string{
		`{"n":512,"engine":"markov-chain","replicates":8,"seed":42}`,
		`{"n":512,"scenario":"worst-case","engine":"chain","replicates":8,"seed":42}`,
		fmt.Sprintf(`{"n":512,"engine":"chain","ell":%d,"replicates":8,"seed":42}`, ell),
		fmt.Sprintf(`{"n":512,"engine":"chain","max_rounds":%d,"replicates":8,"seed":42}`, rounds),
		`{"n":512,"engine":"chain","sources":1,"replicates":8,"seed":42}`,
		`{"n":512,"engine":"chain","topology":"complete","replicates":8,"seed":42}`,
	}
	for _, alias := range aliases {
		w := servePost(t, h, "/v1/tools/fet.study.run", alias)
		if w.Code != http.StatusOK {
			t.Fatalf("alias %s: %d %s", alias, w.Code, w.Body)
		}
		if tier := w.Header().Get("X-Fetserve-Tier"); tier != "cache" {
			t.Errorf("alias %s resolved to a different cell (tier %q)", alias, tier)
		}
	}
	// Topology parameter defaults canonicalize too: "ring" is "ring:2".
	ringBase := `{"n":64,"engine":"fast","topology":"ring","replicates":2,"seed":1}`
	ringFull := `{"n":64,"engine":"fast","topology":"ring:2","replicates":2,"seed":1}`
	if w := servePost(t, h, "/v1/tools/fet.study.run", ringBase); w.Code != http.StatusOK {
		t.Fatalf("ring: %d %s", w.Code, w.Body)
	}
	if w := servePost(t, h, "/v1/tools/fet.study.run", ringFull); w.Header().Get("X-Fetserve-Tier") != "cache" {
		t.Error(`"ring" and "ring:2" resolved to different cells`)
	}
}

// TestServeRejections: engine/topology/scenario combinations the sweep
// layer refuses must be clean 4xx tool errors here too.
func TestServeRejections(t *testing.T) {
	h := newServeHandler(t, passivespread.ServeConfig{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"aggregate on sparse", `{"n":64,"engine":"aggregate","topology":"ring"}`, http.StatusBadRequest},
		{"chain on sparse", `{"n":64,"engine":"chain","topology":"ring"}`, http.StatusBadRequest},
		{"chain on noisy", `{"n":64,"engine":"chain","scenario":"noisy"}`, http.StatusBadRequest},
		{"sparse engine on complete", `{"n":64,"engine":"aggregate-sparse"}`, http.StatusBadRequest},
		{"sparse engine on ring", `{"n":64,"engine":"aggregate-sparse","topology":"ring"}`, http.StatusBadRequest},
		{"engine on custom runner", `{"n":64,"scenario":"async","engine":"fast"}`, http.StatusBadRequest},
		{"topology on custom runner", `{"n":64,"scenario":"async","topology":"ring"}`, http.StatusBadRequest},
		{"pinned topology conflict", `{"n":64,"scenario":"sparse-ring","topology":"torus"}`, http.StatusBadRequest},
		{"unknown topology", `{"n":64,"topology":"hypercube"}`, http.StatusBadRequest},
		{"unknown engine", `{"n":64,"engine":"quantum"}`, http.StatusBadRequest},
		{"unregistered scenario", `{"n":64,"scenario":"no-such-preset"}`, http.StatusNotFound},
		{"sources out of range", `{"n":64,"sources":64}`, http.StatusBadRequest},
		{"noise out of range", `{"n":64,"noise_eps":0.5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := servePost(t, h, "/v1/tools/fet.study.run", tc.body)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body)
			continue
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s: malformed error envelope %s", tc.name, w.Body)
		}
	}
}

// TestSweepCellKeys: the sweep's planned cells and fetserve resolve to
// the same canonical identities, so a sweep CSV row is individually
// reproducible over HTTP.
func TestSweepCellKeys(t *testing.T) {
	sweep, err := passivespread.NewSweep(passivespread.SweepSpec{
		Ns:         []int{64, 128},
		Replicates: 3,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := sweep.CellKeys()
	cells := sweep.Cells()
	if len(keys) != len(cells) {
		t.Fatalf("%d keys for %d cells", len(keys), len(cells))
	}
	for i, key := range keys {
		meta := cells[i]
		if key.Scenario != meta.Scenario || key.Engine != meta.Engine || key.Topology != meta.Topology ||
			key.N != meta.N || key.Ell != meta.Ell || key.Seed != meta.Seed ||
			key.MaxRounds != meta.MaxRounds || key.Replicates != 3 {
			t.Fatalf("key %d %+v does not match cell %+v", i, key, meta)
		}
		if meta.MaxRounds != passivespread.DefaultMaxRounds(meta.N) {
			t.Fatalf("cell %d MaxRounds %d, want default %d", i, meta.MaxRounds, passivespread.DefaultMaxRounds(meta.N))
		}
		round, err := passivespread.ParseCellKey(key.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if round != key {
			t.Fatalf("key %d does not round-trip", i)
		}
	}

	h := newServeHandler(t, passivespread.ServeConfig{})
	w := servePost(t, h, "/v1/tools/fet.sweep.inspect", `{"ns":[64,128],"replicates":3,"seed":11}`)
	if w.Code != http.StatusOK {
		t.Fatalf("inspect: %d %s", w.Code, w.Body)
	}
	var insp struct {
		Cells int `json:"cells"`
		Rows  []struct {
			Key  string `json:"key"`
			Hash string `json:"hash"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &insp); err != nil {
		t.Fatal(err)
	}
	if insp.Cells != len(keys) {
		t.Fatalf("inspection cells %d, want %d", insp.Cells, len(keys))
	}
	for i, row := range insp.Rows {
		if row.Key != keys[i].Canonical() {
			t.Fatalf("inspected key %d:\n got %s\nwant %s", i, row.Key, keys[i].Canonical())
		}
	}

	// Re-running cell 0's identity through fet.study.run resolves the
	// identical content address.
	k := keys[0]
	body := fmt.Sprintf(`{"scenario":%q,"engine":%q,"topology":%q,"n":%d,"ell":%d,"replicates":%d,"max_rounds":%d,"seed":%d}`,
		k.Scenario, k.Engine, k.Topology, k.N, k.Ell, k.Replicates, k.MaxRounds, k.Seed)
	run := servePost(t, h, "/v1/tools/fet.study.run", body)
	if run.Code != http.StatusOK {
		t.Fatalf("run of cell 0: %d %s", run.Code, run.Body)
	}
	if got := run.Header().Get("X-Fetserve-Key"); got != insp.Rows[0].Hash {
		t.Fatalf("run key %s, want inspected hash %s", got, insp.Rows[0].Hash)
	}
}

// goldenServe compares (or with FETSERVE_UPDATE_GOLDEN=1, rewrites)
// one golden response file.
func goldenServe(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("FETSERVE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged:\n--- golden\n%s\n--- got\n%s", name, want, got)
	}
}

// TestServeGoldenResponses pins the wire contract byte for byte: the
// same files back the CI smoke job's curl diffs. Regenerate with
// FETSERVE_UPDATE_GOLDEN=1 go test -run TestServeGoldenResponses .
func TestServeGoldenResponses(t *testing.T) {
	// Health first, on a fresh daemon, so the cache counters are zero —
	// the same state the smoke job sees right after boot.
	h := newServeHandler(t, passivespread.ServeConfig{Workers: 2})
	health := serveGet(t, h, "/v1/tools/fet.health")
	if health.Code != http.StatusOK {
		t.Fatalf("health: %d", health.Code)
	}
	goldenServe(t, "golden_serve_health.json", health.Body.Bytes())

	miss := servePost(t, h, "/v1/tools/fet.study.run", `{"n":512,"engine":"chain","replicates":16,"seed":42}`)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Fetserve-Tier") != "exact" {
		t.Fatalf("miss: %d, tier %q", miss.Code, miss.Header().Get("X-Fetserve-Tier"))
	}
	goldenServe(t, "golden_serve_run.json", miss.Body.Bytes())

	hit := servePost(t, h, "/v1/tools/fet.study.run", `{"n":512,"engine":"chain","replicates":16,"seed":42}`)
	if hit.Header().Get("X-Fetserve-Tier") != "cache" || !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
		t.Fatal("cache hit is not a byte replay of the miss")
	}

	invalid := servePost(t, h, "/v1/tools/fet.study.run", `{"n":1}`)
	if invalid.Code != http.StatusBadRequest {
		t.Fatalf("invalid: %d", invalid.Code)
	}
	goldenServe(t, "golden_serve_invalid.json", invalid.Body.Bytes())

	notFound := servePost(t, h, "/v1/tools/fet.study.run", `{"n":64,"scenario":"no-such-preset"}`)
	if notFound.Code != http.StatusNotFound {
		t.Fatalf("not found: %d", notFound.Code)
	}
	goldenServe(t, "golden_serve_notfound.json", notFound.Body.Bytes())

	list := serveGet(t, h, "/v1/tools/fet.scenarios.list")
	if list.Code != http.StatusOK {
		t.Fatalf("list: %d", list.Code)
	}
	goldenServe(t, "golden_serve_scenarios.json", list.Body.Bytes())
}
