// Command rallocd is the register-allocation daemon: the paper's
// allocator framework served over HTTP/JSON (package server), with a
// content-addressed result cache, bounded-queue admission, per-request
// deadlines, and the telemetry introspection endpoints mounted beside
// the service.
//
// Serve mode (default):
//
//	rallocd -listen 127.0.0.1:8421
//	curl -s localhost:8421/allocate -d '{"source":"int main() { return 0; }",
//	     "config":{"ri":8,"rf":6,"ei":4,"ef":4},"strategy":"improved"}'
//
// SIGINT/SIGTERM stop admission, drain in-flight requests, and exit.
//
// Load-generator mode:
//
//	rallocd -loadgen -n 2000 -concurrency 128 -seed 1 -verify 50
//
// generates the deterministic randprog request corpus for -seed,
// fires it at -addr (or at a private in-process daemon when -addr is
// empty), and reports the outcome tally; every -verify'th response is
// byte-compared against the in-process oracle. With -batch k the
// corpus is grouped into /batch requests of k items each (exercising
// the batch fan-out path); sampling and verification are per item, by
// global corpus index, so the same -verify sample is checked either
// way. Exit status 1 on any transport error, verification mismatch,
// or non-200/429 response.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/randprog"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8421", "serve address")
		workers = flag.Int("workers", 0, "allocation workers (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "admission queue size beyond running workers (full queue sheds with 429)")
		cacheN  = flag.Int("cache", 0, "result cache and program memo entries, each (0 = default)")
		timeout = flag.Duration("timeout", 0, "per-request deadline (0 = none)")

		loadgen     = flag.Bool("loadgen", false, "run the load generator instead of serving")
		addr        = flag.String("addr", "", "loadgen target base URL (empty = spin up an in-process daemon)")
		n           = flag.Int("n", 1000, "loadgen request count")
		concurrency = flag.Int("concurrency", 64, "loadgen concurrent senders")
		seed        = flag.Int64("seed", 1, "loadgen corpus seed")
		verify      = flag.Int("verify", 0, "byte-verify every n-th response against the in-process oracle (0 = off)")
		batch       = flag.Int("batch", 0, "group the corpus into /batch requests of this many items (0 = one /allocate per request)")
	)
	flag.Parse()

	opts := server.Options{
		Workers:      *workers,
		QueueSize:    *queue,
		CacheEntries: *cacheN,
		Timeout:      *timeout,
	}

	if *loadgen {
		os.Exit(runLoadgen(opts, *addr, *n, *concurrency, *seed, *verify, *batch))
	}
	os.Exit(serve(opts, *listen))
}

func serve(opts server.Options, listen string) int {
	reg := telemetry.NewRegistry()
	telemetry.Enable(reg)
	spans := telemetry.NewSpanRecorder(0)
	opts.Registry = reg
	opts.Spans = spans

	s := server.New(opts)
	httpSrv := &http.Server{Addr: listen, Handler: s, ReadHeaderTimeout: 5 * time.Second}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rallocd: serving on http://%s (/allocate, /batch, /healthz, /metrics, /spans, /debug/pprof)\n", listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "rallocd: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rallocd: %v; draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx) //nolint:errcheck // best-effort drain
	s.Close()
	fmt.Fprintln(os.Stderr, "rallocd: drained")
	return 0
}

func runLoadgen(opts server.Options, addr string, n, concurrency int, seed int64, verify, batch int) int {
	base := addr
	if base == "" {
		// Private in-process daemon: same handler stack as serve mode,
		// exercised through real HTTP.
		telemetry.Enable(nil)
		s := server.New(opts)
		ts := httptest.NewServer(s)
		defer func() {
			ts.Close()
			s.Close()
		}()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "rallocd: loadgen against in-process daemon %s\n", base)
	}
	bodies := randprog.Corpus(seed, n)
	var stats *server.LoadStats
	var err error
	if batch > 0 {
		stats, err = server.RunBatchLoad(base, bodies, batch, concurrency, verify)
	} else {
		stats, err = server.RunLoad(base, bodies, concurrency, verify)
	}
	fmt.Println(stats)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rallocd: loadgen: %v\n", err)
		return 1
	}
	if len(stats.Other) > 0 {
		fmt.Fprintf(os.Stderr, "rallocd: loadgen: non-200/429 responses: %v\n", stats.Other)
		return 1
	}
	return 0
}
