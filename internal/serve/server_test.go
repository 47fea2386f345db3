package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a deterministic Backend for server tests: Resolve
// builds a fixed-shape key, Run emits a body derived from the key.
type fakeBackend struct {
	runs  atomic.Int64
	block chan struct{} // when non-nil, Run parks until closed
}

func (f *fakeBackend) Resolve(q Query) (CellKey, error) {
	if q.Scenario == "missing" {
		return CellKey{}, Errorf(CodeNotFound, "scenario: %q is not registered", q.Scenario)
	}
	if q.N < 2 {
		return CellKey{}, Errorf(CodeInvalidArgument, "n: %d, want ≥ 2", q.N)
	}
	k := CellKey{
		Scenario: "fake", Engine: "agent-fast", Topology: "complete",
		N: q.N, Ell: 3, Replicates: 2, MaxRounds: 10, Seed: q.Seed,
	}
	if q.Engine != "" {
		k.Engine = q.Engine
	}
	return k, nil
}

func (f *fakeBackend) Tier(k CellKey) Tier {
	if k.Engine == "markov-chain" {
		return TierExact
	}
	return TierFallback
}

func (f *fakeBackend) Run(ctx context.Context, k CellKey, progress func(done, total int)) ([]byte, error) {
	f.runs.Add(1)
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if progress != nil {
		progress(1, 2)
		progress(2, 2)
	}
	return []byte(fmt.Sprintf(`{"key":%q,"n":%d}`, k.Canonical(), k.N)), nil
}

func (f *fakeBackend) Inspect(q SweepQuery) (*Inspection, error) {
	insp := &Inspection{Replicates: 2}
	for i, n := range q.Ns {
		k, err := f.Resolve(Query{N: n, Seed: q.Seed})
		if err != nil {
			return nil, err
		}
		insp.Rows = append(insp.Rows, InspectedCell{
			Index: i, Scenario: k.Scenario, Engine: k.Engine, Topology: k.Topology,
			N: k.N, Ell: k.Ell, Seed: k.Seed, Key: k.Canonical(), Hash: k.Hash(),
		})
	}
	insp.Cells = len(insp.Rows)
	return insp, nil
}

func (f *fakeBackend) Listings() Listings {
	return Listings{
		Scenarios:  []ScenarioInfo{{Name: "fake", Description: "test preset"}},
		Engines:    []string{"agent-fast", "markov-chain"},
		Topologies: []TopologyInfo{{Spec: "complete", Description: "uniform mixing"}},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *fakeBackend) {
	t.Helper()
	fb := &fakeBackend{}
	if cfg.Backend == nil {
		cfg.Backend = fb
	} else {
		fb = cfg.Backend.(*fakeBackend)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, fb
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestServerTieredAnswerPath(t *testing.T) {
	s, fb := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"n":128,"engine":"markov-chain","seed":7}`

	cold := post(t, h, "/v1/tools/fet.study.run", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold run: %d %s", cold.Code, cold.Body)
	}
	if tier := cold.Header().Get("X-Fetserve-Tier"); tier != "exact" {
		t.Fatalf("cold tier %q, want exact", tier)
	}
	if key := cold.Header().Get("X-Fetserve-Key"); !strings.HasPrefix(key, HashPrefix) {
		t.Fatalf("key header %q", key)
	}

	hit := post(t, h, "/v1/tools/fet.study.run", body)
	if hit.Code != http.StatusOK {
		t.Fatalf("hit: %d %s", hit.Code, hit.Body)
	}
	if tier := hit.Header().Get("X-Fetserve-Tier"); tier != "cache" {
		t.Fatalf("hit tier %q, want cache", tier)
	}
	if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatalf("cache hit differs from cold run:\n%s\n%s", cold.Body, hit.Body)
	}
	if n := fb.runs.Load(); n != 1 {
		t.Fatalf("backend ran %d times, want 1", n)
	}

	// Fallback engine (the fake default) reports its tier.
	fall := post(t, h, "/v1/tools/fet.study.run", `{"n":64}`)
	if tier := fall.Header().Get("X-Fetserve-Tier"); tier != "fallback" {
		t.Fatalf("fallback tier %q", tier)
	}
}

func TestServerOverloaded(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	s, _ := newTestServer(t, Config{Backend: fb, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tools/fet.study.run", "application/json", strings.NewReader(`{"n":64}`))
		if err == nil {
			done <- resp
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fb.runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/tools/fet.study.run", "application/json", strings.NewReader(`{"n":65}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: status %d, want 429", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != CodeOverloaded {
		t.Fatalf("overloaded envelope: %+v, %v", env, err)
	}

	close(fb.block)
	first := <-done
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("admitted request: status %d", first.StatusCode)
	}
}

func TestServerStudyGet(t *testing.T) {
	s, fb := newTestServer(t, Config{})
	h := s.Handler()

	miss := post(t, h, "/v1/tools/fet.study.get", `{"n":128,"engine":"markov-chain"}`)
	if miss.Code != http.StatusNotFound {
		t.Fatalf("uncached get: %d %s", miss.Code, miss.Body)
	}
	if fb.runs.Load() != 0 {
		t.Fatal("fet.study.get triggered a run")
	}

	cold := post(t, h, "/v1/tools/fet.study.run", `{"n":128,"engine":"markov-chain"}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("run: %d %s", cold.Code, cold.Body)
	}
	key, _ := fb.Resolve(Query{N: 128, Engine: "markov-chain"})

	for name, w := range map[string]*httptest.ResponseRecorder{
		"by query":     post(t, h, "/v1/tools/fet.study.get", `{"n":128,"engine":"markov-chain"}`),
		"by canonical": post(t, h, "/v1/tools/fet.study.get", fmt.Sprintf(`{"key":%q}`, key.Canonical())),
		"by hash":      post(t, h, "/v1/tools/fet.study.get", fmt.Sprintf(`{"key":%q}`, key.Hash())),
		"by GET":       get(t, h, "/v1/tools/fet.study.get?key="+key.Hash()),
	} {
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("%s: body differs from cold run", name)
		}
		if tier := w.Header().Get("X-Fetserve-Tier"); tier != "cache" {
			t.Fatalf("%s: tier %q", name, tier)
		}
	}

	if w := get(t, h, "/v1/tools/fet.study.get"); w.Code != http.StatusBadRequest {
		t.Fatalf("GET without key: %d", w.Code)
	}
	if w := post(t, h, "/v1/tools/fet.study.get", `{"key":"sha256:short"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed address: %d", w.Code)
	}
}

func TestServerTypedErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		body string
		code int
		want ErrorCode
	}{
		{`{"n":128,"bogus":true}`, http.StatusBadRequest, CodeInvalidArgument},
		{`{"n":1}`, http.StatusBadRequest, CodeInvalidArgument},
		{`{"n":128,"scenario":"missing"}`, http.StatusNotFound, CodeNotFound},
		{`not json`, http.StatusBadRequest, CodeInvalidArgument},
		{`{"n":128}{"n":2}`, http.StatusBadRequest, CodeInvalidArgument},
	}
	for _, tc := range cases {
		w := post(t, h, "/v1/tools/fet.study.run", tc.body)
		if w.Code != tc.code {
			t.Errorf("%q: status %d, want %d (%s)", tc.body, w.Code, tc.code, w.Body)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code != tc.want {
			t.Errorf("%q: envelope %s, want code %s", tc.body, w.Body, tc.want)
		}
	}
}

// TestServerRejectsOversizedBody: a body over maxBodyBytes is cut off
// and answered with the typed invalidArgument envelope, on every tool
// that decodes a body.
func TestServerRejectsOversizedBody(t *testing.T) {
	s, fb := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"n":128,"scenario":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, tool := range []string{ToolStudyRun, ToolStudyGet, ToolSweepInspect} {
		w := post(t, h, "/v1/tools/"+tool, body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want %d", tool, w.Code, http.StatusBadRequest)
		}
		var env errorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code != CodeInvalidArgument {
			t.Fatalf("%s: envelope %s, want code %s", tool, w.Body, CodeInvalidArgument)
		}
		if !strings.Contains(env.Error.Message, "request body: larger than") {
			t.Fatalf("%s: message %q, want the size cap named", tool, env.Error.Message)
		}
	}
	if fb.runs.Load() != 0 {
		t.Fatalf("an oversized body started %d runs", fb.runs.Load())
	}
}

func TestServerStreamedRun(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	plain := post(t, h, "/v1/tools/fet.study.run", `{"n":256}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain run: %d", plain.Code)
	}

	// A second cell streamed cold: progress events then the result.
	w := post(t, h, "/v1/tools/fet.study.run?stream=1", `{"n":512}`)
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		"event: progress\ndata: {\"done\":1,\"total\":2}\n\n",
		"event: progress\ndata: {\"done\":2,\"total\":2}\n\n",
		"event: result\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream output missing %q:\n%s", want, out)
		}
	}
	// The streamed result's data equals the body a plain request serves.
	replay := post(t, h, "/v1/tools/fet.study.run", `{"n":512}`)
	if tier := replay.Header().Get("X-Fetserve-Tier"); tier != "cache" {
		t.Fatalf("streamed run did not populate the cache (tier %q)", tier)
	}
	if !strings.Contains(out, "event: result\ndata: "+replay.Body.String()+"\n\n") {
		t.Fatalf("streamed result differs from plain body:\n%s\nvs %s", out, replay.Body)
	}

	// A cache hit with streaming still answers as a stream.
	hit := post(t, h, "/v1/tools/fet.study.run?stream=1", `{"n":512}`)
	if ct := hit.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("cached stream content type %q", ct)
	}
	if !strings.Contains(hit.Body.String(), "event: result\ndata: "+replay.Body.String()) {
		t.Fatalf("cached stream result differs:\n%s", hit.Body)
	}
}

func TestServerSweepInspectAndCachedFlag(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	before := post(t, h, "/v1/tools/fet.sweep.inspect", `{"ns":[64,128]}`)
	if before.Code != http.StatusOK {
		t.Fatalf("inspect: %d %s", before.Code, before.Body)
	}
	var insp Inspection
	if err := json.Unmarshal(before.Body.Bytes(), &insp); err != nil {
		t.Fatal(err)
	}
	if insp.Cells != 2 || insp.Rows[0].Cached || insp.Rows[1].Cached {
		t.Fatalf("fresh inspection: %+v", insp)
	}
	statsBefore := s.CacheStats()

	if w := post(t, h, "/v1/tools/fet.study.run", `{"n":64}`); w.Code != http.StatusOK {
		t.Fatalf("run: %d", w.Code)
	}
	after := post(t, h, "/v1/tools/fet.sweep.inspect", `{"ns":[64,128]}`)
	var insp2 Inspection
	if err := json.Unmarshal(after.Body.Bytes(), &insp2); err != nil {
		t.Fatal(err)
	}
	if !insp2.Rows[0].Cached || insp2.Rows[1].Cached {
		t.Fatalf("cached flags after one run: %+v", insp2.Rows)
	}
	// Inspection peeks must not have moved the miss counter (one miss
	// and one put came from the run itself).
	statsAfter := s.CacheStats()
	if statsAfter.Misses != statsBefore.Misses+1 {
		t.Fatalf("inspect mutated miss counter: %+v → %+v", statsBefore, statsAfter)
	}
}

func TestServerHealthAndListingsAndMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 3})
	h := s.Handler()

	health := get(t, h, "/v1/tools/fet.health")
	if health.Code != http.StatusOK {
		t.Fatalf("health: %d", health.Code)
	}
	var hr healthResponse
	if err := json.Unmarshal(health.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Service != "fetserve" || hr.Workers != 3 || hr.KeyVersion != KeyVersion {
		t.Fatalf("health payload: %+v", hr)
	}
	if len(hr.Tools) != len(ToolNames()) {
		t.Fatalf("health tools: %v", hr.Tools)
	}

	list := get(t, h, "/v1/tools/fet.scenarios.list")
	var ls Listings
	if err := json.Unmarshal(list.Body.Bytes(), &ls); err != nil {
		t.Fatal(err)
	}
	if len(ls.Scenarios) == 0 || len(ls.Engines) == 0 || len(ls.Topologies) == 0 {
		t.Fatalf("listings: %+v", ls)
	}

	post(t, h, "/v1/tools/fet.study.run", `{"n":64}`)
	post(t, h, "/v1/tools/fet.study.run", `{"n":1}`)
	m := get(t, h, "/metrics")
	for _, want := range []string{
		`fetserve_requests_total{tool="fet.study.run",code="ok"} 1`,
		`fetserve_requests_total{tool="fet.study.run",code="invalidArgument"} 1`,
		`fetserve_requests_total{tool="fet.health",code="ok"} 1`,
		`fetserve_request_seconds_count{tool="fet.study.run"} 2`,
		"fetserve_cache_entries 1",
		"fetserve_cache_misses_total 1",
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, m.Body)
		}
	}
}

func TestServerSpecsCoverEveryTool(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	index := get(t, h, "/v1/specs")
	var idx map[string][]string
	if err := json.Unmarshal(index.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if got := idx["tools"]; len(got) != len(ToolNames()) {
		t.Fatalf("spec index: %v", got)
	}
	for _, tool := range ToolNames() {
		data, ok := Spec(tool)
		if !ok {
			t.Fatalf("tool %s has no embedded spec", tool)
		}
		text := string(data)
		if !strings.Contains(text, "SHALL") || !strings.Contains(text, "#### Scenario:") {
			t.Errorf("spec for %s lacks SHALL requirements or scenarios", tool)
		}
		w := get(t, h, "/v1/specs/"+tool)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
			t.Errorf("served spec for %s: %d", tool, w.Code)
		}
	}
	if w := get(t, h, "/v1/specs/fet.unknown"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown spec: %d", w.Code)
	}
}

func TestServerPersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, fb1 := newTestServer(t, Config{CacheDir: dir})
	cold := post(t, s1.Handler(), "/v1/tools/fet.study.run", `{"n":128,"engine":"markov-chain"}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d", cold.Code)
	}
	if fb1.runs.Load() != 1 {
		t.Fatalf("runs: %d", fb1.runs.Load())
	}

	s2, fb2 := newTestServer(t, Config{CacheDir: dir})
	hit := post(t, s2.Handler(), "/v1/tools/fet.study.run", `{"n":128,"engine":"markov-chain"}`)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Fetserve-Tier") != "cache" {
		t.Fatalf("restarted daemon: %d, tier %q", hit.Code, hit.Header().Get("X-Fetserve-Tier"))
	}
	if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatal("persisted answer differs across restart")
	}
	if fb2.runs.Load() != 0 {
		t.Fatal("restarted daemon re-ran a persisted cell")
	}
}

// fakeClock is a deterministic Config.Now: every reading advances a
// fixed step, so each instrumented request observes exactly one step
// of latency (route reads the clock twice, at entry and exit).
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestServerInjectedClockLatency(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0), step: 250 * time.Millisecond}
	s, _ := newTestServer(t, Config{Now: clock.now})
	h := s.Handler()
	if w := get(t, h, "/v1/tools/fet.health"); w.Code != http.StatusOK {
		t.Fatalf("health: %d", w.Code)
	}
	body := get(t, h, "/metrics").Body.String()
	// 250 ms lands in the le="1" bucket and nothing earlier; the sum and
	// count are exact because the clock is injected.
	for _, want := range []string{
		`fetserve_request_seconds_bucket{tool="fet.health",le="0.01"} 0`,
		`fetserve_request_seconds_bucket{tool="fet.health",le="1"} 1`,
		`fetserve_request_seconds_sum{tool="fet.health"} 0.25`,
		`fetserve_request_seconds_count{tool="fet.health"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing exact line %q\n%s", want, body)
		}
	}
}

// TestServerCountsPersistErrors removes the cache directory under a
// running server: the answer must still be served, and the lost write
// must show on /metrics (and only there, not in fet.health).
func TestServerCountsPersistErrors(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{CacheDir: dir})
	h := s.Handler()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	w := post(t, h, "/v1/tools/fet.study.run", `{"n":128,"engine":"markov-chain"}`)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"n":128`) {
		t.Fatalf("answer with a vanished cache dir: %d %s", w.Code, w.Body)
	}
	if m := get(t, h, "/metrics").Body.String(); !strings.Contains(m, "\nfetserve_cache_persist_errors_total 1\n") {
		t.Errorf("metrics missing the persist error:\n%s", m)
	}
	if health := get(t, h, "/v1/tools/fet.health").Body.String(); strings.Contains(health, "persist_error") {
		t.Errorf("fet.health grew a persist field: %s", health)
	}
}
