// Command hawkd is the ParserHawk compile service: a long-running
// HTTP/JSON server wrapping the synthesis compiler for concurrent
// clients, with a content-addressed result cache, single-flight request
// coalescing, per-request deadlines, and a fair shared worker pool.
//
// Usage:
//
//	hawkd -addr 127.0.0.1:8080
//
// Endpoints:
//
//	POST /v1/compile?timeout=30s   compile a spec (JSON body; see below)
//	GET  /v1/profiles              list the resolvable target devices
//	GET  /stats                    Prometheus text-format metrics
//	GET  /healthz                  liveness probe
//
// Compile a spec:
//
//	curl -s localhost:8080/v1/compile -d '{
//	  "source":  "header h { bit<8> t; } parser P { state start { extract(h); transition accept; } }",
//	  "profile": "tofino"
//	}'
//
// The response carries the verdict (ok, no_solution, lint_error, or
// unknown), the TCAM entry table exactly as the parserhawk CLI prints
// it, the resource footprint, full synthesis statistics, and whether the
// result came from the cache, a coalesced in-flight compile, or a fresh
// compilation. A request that exceeds its deadline receives verdict
// "unknown" — never a wrong verdict.
//
// A request may instead carry "targets": ["tofino", "ipu", "fpga"] —
// mutually exclusive with "profile" — to fan one spec across several
// devices in a single round trip. The response then has verdict "multi"
// and a targets array of ordinary per-target responses, each stamped
// with its profile name; the per-target compiles share the cache, the
// coalescing index, and the worker pool, and /stats breaks verdicts out
// per profile (hawkd_compile_profile_verdicts_total).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parserhawk/internal/memo"
	"parserhawk/internal/serve"
)

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address")
		defaultProfile = flag.String("default-profile", "tofino", "profile used when a request names none")
		cacheBytes     = flag.Int64("cache-bytes", 64<<20, "result cache byte budget")
		defaultTimeout = flag.Duration("default-timeout", 60*time.Second, "per-request wait deadline when the request sets none")
		maxTimeout     = flag.Duration("max-timeout", 10*time.Minute, "ceiling on the ?timeout= a request may ask for")
		compileTimeout = flag.Duration("compile-timeout", 5*time.Minute, "server-side bound on a single compilation")
		workers        = flag.Int("workers", 0, "portfolio worker tokens shared across requests (0 = GOMAXPROCS)")
		memoDir        = flag.String("memo-dir", "", "persist the cross-compile memo under this directory (survives restarts)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hawkd [flags]")
		flag.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{
		DefaultProfile: *defaultProfile,
		CacheBytes:     *cacheBytes,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		CompileTimeout: *compileTimeout,
		Workers:        *workers,
	}
	if *memoDir != "" {
		mc, err := memo.Open(*memoDir)
		if err != nil {
			log.Fatalf("hawkd: %v", err)
		}
		cfg.Memo = mc
	}
	srv := serve.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("hawkd: listening on %s (default profile %s, %s)", *addr, *defaultProfile, workerDesc(*workers))

	select {
	case err := <-errCh:
		log.Fatalf("hawkd: %v", err)
	case <-ctx.Done():
		log.Printf("hawkd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("hawkd: shutdown: %v", err)
		}
	}
}

func workerDesc(w int) string {
	if w <= 0 {
		return "workers=GOMAXPROCS"
	}
	return fmt.Sprintf("workers=%d", w)
}
