// Command slipsimd serves simulations over HTTP: it accepts RunSpec
// batches, admits them into one bounded job queue with backpressure,
// coalesces identical in-flight requests into one simulation, answers
// repeats from the persistent run cache it shares with the CLIs (and the
// hottest of them from a bounded in-memory cache of what that store
// answered), and drains gracefully on SIGTERM — finishing accepted jobs
// while rejecting new ones. With -no-cache there is no store and so no
// result memory at all: a repeat simulates again, while duplicates of a
// queued or running spec still coalesce.
//
// Usage:
//
//	slipsimd -addr 127.0.0.1:8056 -j 8 -queue 64
//
// Endpoints:
//
//	POST /v1/run     {"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","arsync":"L1","cmps":2}]}
//	GET  /healthz    liveness, drain state, job counts
//	GET  /metrics    deterministic text metrics
//
// The daemon keeps no job history, and its flight table holds only queued
// and running jobs; /healthz counts jobs by state. A store or cache hit
// makes no job.
//
// Results are bit-identical to local `slipsim` runs of the same spec: the
// daemon multiplexes clients over the same deterministic core. Submit from
// the CLI with `slipsim -server http://host:port`.
//
// Gateway mode shards a replica fleet:
//
//	slipsimd -gateway http://r1:8056,http://r2:8056,http://r3:8056 -addr :8055
//
// A gateway serves the same POST /v1/run contract but owns no workers: it
// consistent-hashes each spec's cache key across the replica list, so all
// submissions of a spec — through any gateway — coalesce on one replica's
// flight table, and the fleet simulates each distinct spec exactly once.
// It answers hot specs itself, from a bounded cache of replica answers
// that were cached, and forwards the rest, passing replica results on as
// the bytes the replica sent.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slipstream/internal/buildinfo"
	"slipstream/internal/core"
	"slipstream/internal/runcache"
	"slipstream/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8056", "listen address")
		workers   = flag.Int("j", 0, "max concurrent simulations (0: NumCPU)")
		queue     = flag.Int("queue", service.DefaultQueueDepth, "max queued (not yet running) jobs; beyond this, submissions get 429")
		cacheAt   = flag.String("cache", runcache.DefaultDir(), "persistent run cache directory (shared with the CLIs)")
		noCache   = flag.Bool("no-cache", false, "serve without the persistent run cache: no result is remembered, so repeats simulate again (in-flight duplicates still coalesce)")
		auditRuns = flag.Bool("audit", false, "cross-check every simulation against conservation and coherence invariants")
		gateway   = flag.String("gateway", "", "serve as a sharding gateway over this comma-separated replica URL list instead of simulating locally")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("slipsimd"))
		return
	}

	if *gateway != "" {
		serveGateway(*addr, *gateway)
		return
	}

	cfg := service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Audit:      *auditRuns,
	}
	if !*noCache {
		cache, err := runcache.Open(*cacheAt, core.SimVersion)
		if err != nil {
			// A broken cache directory degrades to fresh simulation, as in
			// the experiments CLI.
			fmt.Fprintf(os.Stderr, "slipsimd: run cache unavailable (%v); serving without it\n", err)
		} else {
			cfg.Cache = cache
			fmt.Fprintf(os.Stderr, "slipsimd: run cache at %s\n", cache.Dir())
		}
	}

	srv := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "slipsimd: serving on http://%s (sim-semantics v%s)\n", ln.Addr(), core.SimVersion)

	// First SIGTERM/SIGINT: drain — stop admitting, finish accepted jobs.
	// Second: hard stop — queued jobs never run, running ones finish but
	// their results are discarded, never cached — and exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpDone:
		fatalf("serve: %v", err)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "slipsimd: %v: draining (again to abort in-flight jobs)\n", sig)
	}
	srv.StartDrain()
	drained := make(chan struct{})
	go func() { srv.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-sigs:
		fmt.Fprintln(os.Stderr, "slipsimd: hard stop, canceling in-flight jobs")
		srv.Close()
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "slipsimd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "slipsimd: drained, bye")
}

// serveGateway runs the consistent-hashing gateway until SIGTERM, then
// shuts the listener down gracefully. A gateway holds no job state, so
// drain is just an HTTP shutdown.
func serveGateway(addr, replicaList string) {
	var replicas []string
	for _, r := range strings.Split(replicaList, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicas = append(replicas, r)
		}
	}
	g, err := service.NewGateway(service.GatewayConfig{Replicas: replicas})
	if err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{Handler: g.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "slipsimd: gateway on http://%s over %d replica(s)\n", ln.Addr(), len(replicas))
	for _, r := range g.Replicas() {
		fmt.Fprintf(os.Stderr, "slipsimd:   replica %s\n", r)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpDone:
		fatalf("serve: %v", err)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "slipsimd: %v: gateway shutting down\n", sig)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "slipsimd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "slipsimd: gateway stopped")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slipsimd: "+format+"\n", args...)
	os.Exit(1)
}
