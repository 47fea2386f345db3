package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// the service's three regimes: cache hits (≤ 100 µs), exact-tier runs
// (≤ 10 ms), and agent-engine fallbacks (up to tens of seconds).
var latencyBuckets = []float64{100e-6, 1e-3, 10e-3, 100e-3, 1, 10}

// metrics tracks per-tool request counters (by outcome code) and
// latency histograms, rendered in Prometheus text exposition format on
// /metrics. Everything is hand-rolled: no dependencies, one mutex —
// the measured handlers do milliseconds of work, so contention is
// irrelevant next to fidelity.
type metrics struct {
	mu            sync.Mutex
	tools         map[string]*toolMetrics
	persistErrors uint64 // answers the disk tier failed to store
}

type toolMetrics struct {
	requests map[string]uint64 // by outcome: "ok" or an ErrorCode
	buckets  []uint64          // cumulative-style counts per latencyBuckets entry
	inf      uint64            // > last bucket
	sum      float64           // total seconds
	count    uint64
}

func newMetrics() *metrics { return &metrics{tools: map[string]*toolMetrics{}} }

// observe records one request's outcome and latency under a tool name.
func (m *metrics) observe(tool, outcome string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm := m.tools[tool]
	if tm == nil {
		tm = &toolMetrics{requests: map[string]uint64{}, buckets: make([]uint64, len(latencyBuckets))}
		m.tools[tool] = tm
	}
	tm.requests[outcome]++
	secs := d.Seconds()
	tm.sum += secs
	tm.count++
	for i, ub := range latencyBuckets {
		if secs <= ub {
			tm.buckets[i]++
			return
		}
	}
	tm.inf++
}

// persistFailed counts one answer the disk tier failed to store.
func (m *metrics) persistFailed() {
	m.mu.Lock()
	m.persistErrors++
	m.mu.Unlock()
}

// render writes the Prometheus text exposition. Output is sorted by
// tool and label so scrapes are stable.
func (m *metrics) render(cache CacheStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	b.WriteString("# HELP fetserve_requests_total Requests per tool and outcome code.\n")
	b.WriteString("# TYPE fetserve_requests_total counter\n")
	tools := make([]string, 0, len(m.tools))
	//fet:allow detrand: keys are collected then sorted before rendering
	for name := range m.tools {
		tools = append(tools, name)
	}
	sort.Strings(tools)
	for _, name := range tools {
		tm := m.tools[name]
		codes := make([]string, 0, len(tm.requests))
		//fet:allow detrand: keys are collected then sorted before rendering
		for code := range tm.requests {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		for _, code := range codes {
			fmt.Fprintf(&b, "fetserve_requests_total{tool=%q,code=%q} %d\n", name, code, tm.requests[code])
		}
	}
	b.WriteString("# HELP fetserve_request_seconds Request latency per tool.\n")
	b.WriteString("# TYPE fetserve_request_seconds histogram\n")
	for _, name := range tools {
		tm := m.tools[name]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += tm.buckets[i]
			fmt.Fprintf(&b, "fetserve_request_seconds_bucket{tool=%q,le=%q} %d\n",
				name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "fetserve_request_seconds_bucket{tool=%q,le=\"+Inf\"} %d\n", name, cum+tm.inf)
		fmt.Fprintf(&b, "fetserve_request_seconds_sum{tool=%q} %g\n", name, tm.sum)
		fmt.Fprintf(&b, "fetserve_request_seconds_count{tool=%q} %d\n", name, tm.count)
	}
	b.WriteString("# HELP fetserve_cache_entries Resident cache entries.\n")
	b.WriteString("# TYPE fetserve_cache_entries gauge\n")
	fmt.Fprintf(&b, "fetserve_cache_entries %d\n", cache.Entries)
	b.WriteString("# HELP fetserve_cache_bytes Resident cache bytes.\n")
	b.WriteString("# TYPE fetserve_cache_bytes gauge\n")
	fmt.Fprintf(&b, "fetserve_cache_bytes %d\n", cache.Bytes)
	for _, g := range []struct {
		name string
		help string
		v    uint64
	}{
		{"fetserve_cache_hits_total", "Memory-tier cache hits.", cache.Hits},
		{"fetserve_cache_disk_hits_total", "Disk-tier cache hits (promoted).", cache.DiskHits},
		{"fetserve_cache_misses_total", "Cache misses.", cache.Misses},
		{"fetserve_cache_evictions_total", "Memory-tier evictions.", cache.Evictions},
		{"fetserve_cache_persist_errors_total", "Answers served but not persisted to the disk tier.", m.persistErrors},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
	return b.String()
}
