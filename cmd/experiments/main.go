// Command experiments regenerates the paper's tables and figures as text.
//
// Usage:
//
//	experiments -all -size paper          # everything (several minutes)
//	experiments -fig5 -size small         # one figure, quick
//	experiments -fig1 -fig10 -cmps 2,4,8  # custom machine sweep
//	experiments -all -j 8                 # bound the worker pool
//	experiments -all -no-cache            # force fresh simulations
//
// The harness first collects every run the selected figures need, then
// simulates the deduplicated set on a worker pool of -j simulations at a
// time. Completed runs persist in an on-disk cache (see -cache), so
// re-running a figure — or another figure sharing its configurations —
// costs no simulation. Each simulation is single-threaded and
// deterministic: output is byte-identical at any -j.
//
// Each run verifies kernel numerics; a figure is never rendered from an
// incorrect simulation, and unverified runs are never cached.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"slipstream/internal/buildinfo"
	"slipstream/internal/core"
	"slipstream/internal/harness"
	"slipstream/internal/kernels"
	"slipstream/internal/outfile"
	"slipstream/internal/runcache"
)

func main() {
	var (
		all       = flag.Bool("all", false, "regenerate every table and figure")
		size      = flag.String("size", "small", "problem size preset: tiny, small, paper")
		cmps      = flag.String("cmps", "2,4,8,16", "comma-separated CMP counts to sweep")
		workers   = flag.Int("j", runtime.NumCPU(), "max concurrent simulations")
		cacheAt   = flag.String("cache", runcache.DefaultDir(), "persistent run cache directory")
		noCache   = flag.Bool("no-cache", false, "disable the persistent run cache")
		csvDir    = flag.String("csv", "", "also write per-figure CSV data files into this directory")
		audit     = flag.Bool("audit", false, "cross-check every simulated run against conservation and coherence invariants")
		chromeOut = flag.String("trace-out", "", "write a merged Chrome trace-event JSON timeline of every simulated run to this file")
		metricOut = flag.String("metrics-out", "", "write merged counters and latency histograms of every simulated run to this file (.csv for CSV)")
		quiet     = flag.Bool("q", false, "suppress per-run progress lines")
		version   = flag.Bool("version", false, "print version and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the selected figures' runs to this file (read it with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file after the selected figures' runs (read it with go tool pprof)")
	)
	figs := harness.Figures()
	want := make([]*bool, len(figs))
	for i, f := range figs {
		want[i] = flag.Bool(f.Tag, false, f.Doc)
	}
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("experiments"))
		return
	}

	ksize, err := kernels.ParseSize(*size)
	if err != nil {
		fatalf("%v", err)
	}
	var counts []int
	for _, part := range strings.Split(*cmps, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fatalf("bad -cmps entry %q", part)
		}
		counts = append(counts, n)
	}

	// An interrupt stops scheduling new simulations and lets in-flight
	// ones drain; a second interrupt kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := harness.Config{
		Size: ksize, CMPCounts: counts, Out: os.Stdout, Workers: *workers,
		Audit: *audit, Context: ctx,
		Observe: *chromeOut != "" || *metricOut != "",
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	// quarantined counts the entries Open found corrupt, before any session
	// could meet them; those found later are the session's CacheCorrupt.
	var quarantined int64
	if !*noCache {
		cache, err := runcache.Open(*cacheAt, core.SimVersion)
		if err != nil {
			// A broken cache directory degrades to fresh simulation.
			fmt.Fprintf(os.Stderr, "experiments: run cache unavailable (%v); continuing without it\n", err)
		} else {
			quarantined = cache.Quarantined()
			cfg.Cache = cache
		}
	}
	s := harness.NewSession(cfg)

	var tags []string
	for i, f := range figs {
		if *all || *want[i] {
			tags = append(tags, f.Tag)
		}
	}

	any := len(tags) > 0
	if any {
		stopProfile, err := outfile.CPUProfile(*cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		writeMemProfile, err := outfile.MemProfile(*memProf)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runErr := s.RunFigures(tags...)
		if err := stopProfile(); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := writeMemProfile(); err != nil {
			fatalf("memprofile: %v", err)
		}
		if runErr != nil {
			fatalf("%v", runErr)
		}
	}
	if *csvDir != "" {
		any = true
		if err := s.WriteCSV(*csvDir); err != nil {
			fatalf("csv: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote CSV data to %s\n", *csvDir)
	}
	if *chromeOut != "" {
		if err := outfile.Write(*chromeOut, s.WriteTrace); err != nil {
			fatalf("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote Chrome trace to %s (open in Perfetto)\n", *chromeOut)
	}
	if *metricOut != "" {
		write := s.WriteMetrics
		if strings.HasSuffix(*metricOut, ".csv") {
			write = s.WriteMetricsCSV
		}
		if err := outfile.Write(*metricOut, write); err != nil {
			fatalf("metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote metrics to %s\n", *metricOut)
	}
	if !any {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected; pass -all or one of the -table/-fig flags")
		flag.Usage()
		os.Exit(2)
	}
	// Nothing when zero, so a run over a sound cache prints no extra line.
	if n := int64(s.CacheCorrupt()) + quarantined; n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d run cache entries were corrupt or unreadable; their runs were simulated again\n", n)
	}
	if !*quiet {
		simulated, cacheHits := s.Stats()
		fmt.Fprintf(os.Stderr, "experiments: %d runs simulated, %d served from cache\n",
			simulated, cacheHits)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
