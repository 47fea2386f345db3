package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"passivespread/internal/checkpoint"
)

// Tool names, namespaced in the k0rdent style. Each has an acceptance
// spec under specs/ (served at /v1/specs/<tool>) and a typed error
// vocabulary; ToolNames lists them sorted.
const (
	ToolStudyRun      = "fet.study.run"
	ToolStudyGet      = "fet.study.get"
	ToolSweepInspect  = "fet.sweep.inspect"
	ToolScenariosList = "fet.scenarios.list"
	ToolHealth        = "fet.health"
)

// ToolNames returns the served tools in sorted order.
func ToolNames() []string {
	return []string{ToolHealth, ToolScenariosList, ToolStudyGet, ToolStudyRun, ToolSweepInspect}
}

// Config configures a Server.
type Config struct {
	// Backend executes queries (required).
	Backend Backend
	// Workers bounds the fallback tier's concurrent agent-engine
	// studies (0 = GOMAXPROCS). When every slot is busy, fallback
	// queries are rejected with CodeOverloaded instead of queueing
	// unboundedly; cache hits and exact-tier runs are never gated.
	Workers int
	// CacheBytes bounds the resident answer cache (0 = 64 MiB).
	CacheBytes int64
	// CacheDir enables the persistent disk tier ("" = memory only).
	CacheDir string
	// Now supplies the clock for uptime and handler-latency metrics
	// (nil = time.Now). Injected so the serve package reads the wall
	// clock in exactly one place — the detrand-allowlisted default
	// below — and so latency observation is unit-testable.
	Now func() time.Time
}

// Server is the fetserve HTTP service. Construct with New; expose with
// Handler. The same Server value is safe for concurrent use.
type Server struct {
	backend  Backend
	cache    *Cache
	metrics  *metrics
	slots    chan struct{}
	workers  int
	rejected int // corrupt disk-cache entries rejected at boot
	now      func() time.Time
	started  time.Time
	mux      *http.ServeMux
}

// New validates cfg, loads the disk cache tier if configured, and
// returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("serve: Workers: %d, want ≥ 0", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache, rejected, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		//fet:allow detrand: the injected clock's default — the package's single wall-clock reference
		now = time.Now
	}
	s := &Server{
		backend:  cfg.Backend,
		cache:    cache,
		metrics:  newMetrics(),
		slots:    make(chan struct{}, workers),
		workers:  workers,
		rejected: rejected,
		now:      now,
		started:  now(),
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/tools/"+ToolStudyRun, ToolStudyRun, s.handleStudyRun)
	s.route("POST /v1/tools/"+ToolStudyGet, ToolStudyGet, s.handleStudyGet)
	s.route("GET /v1/tools/"+ToolStudyGet, ToolStudyGet, s.handleStudyGet)
	s.route("POST /v1/tools/"+ToolSweepInspect, ToolSweepInspect, s.handleSweepInspect)
	s.route("GET /v1/tools/"+ToolScenariosList, ToolScenariosList, s.handleScenariosList)
	s.route("GET /v1/tools/"+ToolHealth, ToolHealth, s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/specs", s.handleSpecIndex)
	s.mux.HandleFunc("GET /v1/specs/{tool}", s.handleSpec)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the cache counters (used by fet.health, /metrics
// and the benchmarks' sanity checks).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// route registers an instrumented tool handler: the wrapper times the
// request and records the outcome code under the tool's name.
func (s *Server) route(pattern, tool string, h func(w http.ResponseWriter, r *http.Request) string) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		outcome := h(w, r)
		s.metrics.observe(tool, outcome, s.now().Sub(start))
	})
}

// writeJSON renders v as the canonical compact JSON body.
func writeJSON(w http.ResponseWriter, v interface{}) string {
	body, err := json.Marshal(v)
	if err != nil {
		return string(writeError(w, Errorf(CodeInternal, "serve: encoding response: %v", err)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	return "ok"
}

// maxBodyBytes caps a request body. Every legitimate body — a query, a
// key, a sweep grid — is far smaller; the cap stops a careless or
// hostile client from making the daemon read an unbounded body.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a request body strictly: unknown fields and
// trailing garbage are invalidArgument, so a typo'd field name fails
// loudly instead of silently selecting a default (and a different
// cache identity than the caller intended). A body over maxBodyBytes
// is invalidArgument too.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return Errorf(CodeInvalidArgument, "request body: larger than %d bytes", tooLarge.Limit)
		}
		return Errorf(CodeInvalidArgument, "request body: %v", err)
	}
	if dec.More() {
		return Errorf(CodeInvalidArgument, "request body: trailing data after JSON value")
	}
	return nil
}

// wantsStream reports whether the client asked for streamed progress
// (SSE): either the stream query parameter or an event-stream Accept.
func wantsStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// handleStudyRun is the tiered answer path: cache hit → exact run
// inline → fallback on the bounded pool. The response body is the
// canonical answer for the resolved key — byte-identical whether it
// came from the cache or a fresh run.
func (s *Server) handleStudyRun(w http.ResponseWriter, r *http.Request) string {
	var q Query
	if err := decodeJSON(w, r, &q); err != nil {
		return string(writeError(w, err))
	}
	key, err := s.backend.Resolve(q)
	if err != nil {
		return string(writeError(w, err))
	}
	canonical := key.Canonical()
	hash := checkpoint.HashHex(canonical)
	stream := wantsStream(r)

	if body, ok := s.cache.Get(hash); ok {
		return s.writeAnswer(w, r, stream, "cache", hash, body)
	}

	tier := s.backend.Tier(key)
	if tier == TierFallback {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		default:
			return string(writeError(w, Errorf(CodeOverloaded,
				"all %d fallback workers are busy; retry, or use an exact engine (aggregate, markov-chain)", s.workers)))
		}
	}

	var progress func(done, total int)
	var sse *sseWriter
	if stream {
		sse = newSSEWriter(w)
		progress = func(done, total int) {
			sse.event("progress", fmt.Sprintf(`{"done":%d,"total":%d}`, done, total))
		}
	}
	body, err := s.backend.Run(r.Context(), key, progress)
	if err != nil {
		if sse != nil {
			// Headers are gone; deliver the typed error as an event.
			te := asError(err)
			data, _ := json.Marshal(errorEnvelope{Error: te})
			sse.event("error", string(data))
			return string(te.Code)
		}
		return string(writeError(w, err))
	}
	if err := s.cache.Put(canonical, body); err != nil {
		// The answer is still served and stays resident; only its
		// durability is lost, so count it instead of failing the query.
		s.metrics.persistFailed()
	}
	if sse != nil {
		sse.event("result", string(body))
		return "ok"
	}
	return s.writeAnswer(w, r, false, tier.String(), hash, body)
}

// writeAnswer serves a resolved answer body. The tier travels in a
// header, never in the body: the body must be byte-identical across
// tiers for the same key (the subsystem's core guarantee).
func (s *Server) writeAnswer(w http.ResponseWriter, _ *http.Request, stream bool, tier, hash string, body []byte) string {
	if stream {
		newSSEWriter(w).event("result", string(body))
		return "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fetserve-Tier", tier)
	w.Header().Set("X-Fetserve-Key", HashPrefix+hash)
	w.Write(body)
	return "ok"
}

// getRequest is the fet.study.get request shape: a key (canonical
// string or sha256: content address), or the same fields as a run
// query to resolve one.
type getRequest struct {
	Key string `json:"key,omitempty"`
	Query
}

// handleStudyGet answers from the cache only: the read-side tool for
// precomputed phase diagrams. A miss is notFound, never a run.
func (s *Server) handleStudyGet(w http.ResponseWriter, r *http.Request) string {
	var req getRequest
	if r.Method == http.MethodGet {
		req.Key = r.URL.Query().Get("key")
		if req.Key == "" {
			return string(writeError(w, Errorf(CodeInvalidArgument,
				"key: required on GET (canonical cell key or sha256: hash); POST a query body to resolve one")))
		}
	} else if err := decodeJSON(w, r, &req); err != nil {
		return string(writeError(w, err))
	}
	var hash string
	switch {
	case strings.HasPrefix(req.Key, HashPrefix):
		hash = strings.TrimPrefix(req.Key, HashPrefix)
		if len(hash) != 64 {
			return string(writeError(w, Errorf(CodeInvalidArgument, "key: malformed content address %q", req.Key)))
		}
	case req.Key != "":
		k, err := ParseCellKey(req.Key)
		if err != nil {
			return string(writeError(w, Errorf(CodeInvalidArgument, "key: %v", err)))
		}
		hash = checkpoint.HashHex(k.Canonical())
	default:
		k, err := s.backend.Resolve(req.Query)
		if err != nil {
			return string(writeError(w, err))
		}
		hash = checkpoint.HashHex(k.Canonical())
	}
	body, ok := s.cache.Get(hash)
	if !ok {
		return string(writeError(w, Errorf(CodeNotFound,
			"no cached answer for %s%s; compute it with %s", HashPrefix, hash, ToolStudyRun)))
	}
	return s.writeAnswer(w, r, false, "cache", hash, body)
}

// handleSweepInspect expands a sweep grid into planned cells, keys and
// cache status without running anything.
func (s *Server) handleSweepInspect(w http.ResponseWriter, r *http.Request) string {
	var q SweepQuery
	if err := decodeJSON(w, r, &q); err != nil {
		return string(writeError(w, err))
	}
	insp, err := s.backend.Inspect(q)
	if err != nil {
		return string(writeError(w, err))
	}
	for i := range insp.Rows {
		insp.Rows[i].Cached = s.cache.Contains(strings.TrimPrefix(insp.Rows[i].Hash, HashPrefix))
	}
	return writeJSON(w, insp)
}

// handleScenariosList serves the sorted scenario/engine/topology
// listings — the discoverable axis vocabulary of every other tool.
func (s *Server) handleScenariosList(w http.ResponseWriter, r *http.Request) string {
	return writeJSON(w, s.backend.Listings())
}

// healthResponse is the fet.health payload.
type healthResponse struct {
	Status        string     `json:"status"`
	Service       string     `json:"service"`
	KeyVersion    string     `json:"key_version"`
	Tools         []string   `json:"tools"`
	Workers       int        `json:"workers"`
	Cache         CacheStats `json:"cache"`
	CacheRejected int        `json:"cache_rejected_entries"`
}

// handleHealth reports liveness, the served tool set, and cache state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) string {
	return writeJSON(w, healthResponse{
		Status:        "ok",
		Service:       "fetserve",
		KeyVersion:    KeyVersion,
		Tools:         ToolNames(),
		Workers:       s.workers,
		Cache:         s.cache.Stats(),
		CacheRejected: s.rejected,
	})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, s.metrics.render(s.cache.Stats()))
}

// sseWriter emits server-sent events with an immediate flush per
// event, so progress is visible while replicates are still running.
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
}

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &sseWriter{w: w, flusher: flusher}
}

func (s *sseWriter) event(name, data string) {
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	if s.flusher != nil {
		s.flusher.Flush()
	}
}
