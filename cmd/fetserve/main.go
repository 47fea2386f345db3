// Command fetserve serves the phase diagram over HTTP — a
// content-addressed query service over the same Study/Sweep machinery
// the CLIs use. Every query canonicalizes to a cell key (fetcell/v1);
// answers are cached under the key's SHA-256 and replayed
// byte-identically, which is sound because every answer is a pure
// function of its key (replicate i runs with StreamSeed(seed, i),
// independent of scheduling).
//
// Usage:
//
//	fetserve [-addr :8080] [-workers 4] [-cache-dir /var/cache/fetserve]
//
//	curl -s localhost:8080/v1/tools/fet.health
//	curl -s -X POST localhost:8080/v1/tools/fet.study.run \
//	     -d '{"n":4096,"engine":"chain","seed":42}'
//	curl -s localhost:8080/v1/tools/fet.scenarios.list
//
// Tools (POST JSON unless noted; acceptance specs at /v1/specs/<tool>):
//
//	fet.study.run       compute or replay one cell (add ?stream=1 for
//	                    SSE progress)
//	fet.study.get       cache-only read (GET ?key=... or POST query)
//	fet.sweep.inspect   expand a sweep grid into keyed cells, dry
//	fet.scenarios.list  scenario/engine/topology vocabulary (GET)
//	fet.health          liveness + cache state (GET)
//
// The answer path is tiered: cache hit, then inline exact run (chain
// and aggregate engines), then the bounded -workers fallback pool for
// agent-engine queries (429 overloaded when saturated). /metrics
// exposes per-tool counters and latency histograms in Prometheus text
// format. With -cache-dir, answers persist across restarts; corrupt
// entries are rejected at boot and counted in fet.health.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"passivespread"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent fallback-tier studies (0 = GOMAXPROCS)")
		cacheBytes = flag.Int64("cache-bytes", 0, "resident answer-cache budget in bytes (0 = 64 MiB)")
		cacheDir   = flag.String("cache-dir", "", "persistent cache directory (empty = memory only)")
		replicates = flag.Int("replicates", 0, "default replicates per query (0 = 40)")
	)
	flag.Parse()
	if err := run(*addr, *workers, *cacheBytes, *cacheDir, *replicates); err != nil {
		fmt.Fprintln(os.Stderr, "fetserve:", err)
		os.Exit(1)
	}
}

func run(addr string, workers int, cacheBytes int64, cacheDir string, replicates int) error {
	server, err := passivespread.NewServer(passivespread.ServeConfig{
		Workers:           workers,
		CacheBytes:        cacheBytes,
		CacheDir:          cacheDir,
		DefaultReplicates: replicates,
	})
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fetserve: listening on %s (cache: %s)\n", addr, cacheLabel(cacheDir))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory only"
	}
	return "persisted to " + dir
}
