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
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"slipstream/internal/buildinfo"
	"slipstream/internal/core"
	"slipstream/internal/harness"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
)

func main() {
	var (
		all       = flag.Bool("all", false, "regenerate every table and figure")
		table1    = flag.Bool("table1", false, "Table 1: machine parameters")
		table2    = flag.Bool("table2", false, "Table 2: benchmarks and sizes")
		fig1      = flag.Bool("fig1", false, "Figure 1: double vs single")
		fig4      = flag.Bool("fig4", false, "Figure 4: single-mode scalability")
		fig5      = flag.Bool("fig5", false, "Figure 5: slipstream and double vs single")
		fig6      = flag.Bool("fig6", false, "Figure 6: execution time breakdown")
		fig7      = flag.Bool("fig7", false, "Figure 7: request classification")
		fig9      = flag.Bool("fig9", false, "Figure 9: transparent load breakdown")
		fig10     = flag.Bool("fig10", false, "Figure 10: transparent loads + self-invalidation")
		adapt     = flag.Bool("adaptive", false, "extension: dynamic A-R policy selection (paper Section 6)")
		forward   = flag.Bool("forward", false, "extension: A-to-R address forwarding queue (paper Section 6)")
		sens      = flag.Bool("sensitivity", false, "extension: slipstream benefit vs network latency")
		leads     = flag.Bool("leads", false, "extension: A-stream lead analysis per policy")
		banks     = flag.Bool("banks", false, "extension: directory-controller banking sensitivity")
		synth     = flag.Bool("synth", false, "extension: synthetic sharing-pattern sweep (SYNTH generator)")
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
	if !*noCache {
		cache, err := runcache.Open(*cacheAt, core.SimVersion)
		if err != nil {
			// A broken cache directory degrades to fresh simulation.
			fmt.Fprintf(os.Stderr, "experiments: run cache unavailable (%v); continuing without it\n", err)
		} else {
			cfg.Cache = cache
		}
	}
	s := harness.NewSession(cfg)

	selected := map[string]bool{
		"table1": *table1, "table2": *table2,
		"fig1": *fig1, "fig4": *fig4, "fig5": *fig5, "fig6": *fig6,
		"fig7": *fig7, "fig9": *fig9, "fig10": *fig10,
		"adaptive": *adapt, "forward": *forward, "sensitivity": *sens,
		"leads": *leads, "banks": *banks, "synth": *synth,
	}
	var tags []string
	for _, tag := range harness.Tags() {
		if *all || selected[tag] {
			tags = append(tags, tag)
		}
	}

	any := len(tags) > 0
	if any {
		stopProfile := profileCPU(*cpuProf)
		writeMemProfile := profileMem(*memProf)
		err := s.RunFigures(tags...)
		stopProfile()
		writeMemProfile()
		if err != nil {
			fatalf("%v", err)
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
		if err := writeFile(*chromeOut, s.WriteTrace); err != nil {
			fatalf("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote Chrome trace to %s (open in Perfetto)\n", *chromeOut)
	}
	if *metricOut != "" {
		write := s.WriteMetrics
		if strings.HasSuffix(*metricOut, ".csv") {
			write = s.WriteMetricsCSV
		}
		if err := writeFile(*metricOut, write); err != nil {
			fatalf("metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote metrics to %s\n", *metricOut)
	}
	if !any {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected; pass -all or one of the -table/-fig flags")
		flag.Usage()
		os.Exit(2)
	}
	if !*quiet {
		simulated, cacheHits := s.Stats()
		fmt.Fprintf(os.Stderr, "experiments: %d runs simulated, %d served from cache\n",
			simulated, cacheHits)
	}
}

// writeFile creates path and streams render into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileCPU starts a CPU profile written to path, unless path is empty,
// and returns the function that stops it.
func profileCPU(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatalf("cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}
}

// profileMem creates path for an allocation profile, unless path is empty,
// and returns the function that writes the allocs profile of everything
// the process has allocated so far into it.
func profileMem(path string) (write func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("memprofile: %v", err)
	}
	return func() {
		runtime.GC() // the profile is current as of the last completed GC
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
