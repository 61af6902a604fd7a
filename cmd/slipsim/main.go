// Command slipsim runs one benchmark under one execution mode and prints a
// detailed report: cycle count, per-task time breakdowns, memory-system
// statistics, and (in slipstream mode) request classification, transparent
// load, and self-invalidation counters.
//
// Usage:
//
//	slipsim -kernel SOR -mode slipstream -arsync L1 -cmps 8 -size small -tl -si
//
// With -server the run is submitted to a slipsimd daemon instead of
// simulating locally; the daemon multiplexes the same deterministic core,
// so the report is identical either way:
//
//	slipsim -server http://127.0.0.1:8056 -kernel SOR -mode slipstream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slipstream"
	"slipstream/internal/buildinfo"
	"slipstream/internal/outfile"
	"slipstream/internal/service/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("slipsim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		kernel    = flags.String("kernel", "SOR", "workload, optionally with parameters (\"SYNTH:mig=0.3,seed=7\"): "+strings.Join(slipstream.AllKernels(), ", "))
		params    = flags.String("params", "", "kernel parameters as \"k1=v1,k2=v2\" (parameterized kernels only; alternative to the NAME:k=v form)")
		list      = flags.Bool("list", false, "print the workload catalog with the SYNTH parameter schema and exit")
		mode      = flags.String("mode", "slipstream", "execution mode: sequential, single, double, slipstream")
		arsync    = flags.String("arsync", "L1", "A-R synchronization: L1, L0, G1, G0")
		cmps      = flags.Int("cmps", 8, "number of CMP nodes")
		size      = flags.String("size", "small", "problem size preset: tiny, small, paper")
		tl        = flags.Bool("tl", false, "enable transparent loads (slipstream only)")
		si        = flags.Bool("si", false, "enable self-invalidation (implies -tl)")
		adapt     = flags.Bool("adaptive", false, "vary the A-R policy dynamically (slipstream only)")
		auditRun  = flags.Bool("audit", false, "cross-check the run against conservation and coherence invariants")
		chromeOut = flags.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file (open in Perfetto)")
		metricOut = flags.String("metrics-out", "", "write aggregated counters and latency histograms to this file (.csv for CSV)")
		server    = flags.String("server", "", "submit the run to the slipsimd daemon at this base URL instead of simulating locally")
		verbose   = flags.Bool("v", false, "print per-task breakdowns")
		version   = flags.Bool("version", false, "print version and exit")
		cpuProf   = flags.String("cpuprofile", "", "write a CPU profile of the local simulation to this file (read it with go tool pprof)")
		memProf   = flags.String("memprofile", "", "write an allocation profile to this file after the local simulation (read it with go tool pprof)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "slipsim: "+format+"\n", args...)
		return 1
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("slipsim"))
		return 0
	}
	if *list {
		fmt.Fprint(stdout, slipstream.DescribeKernels())
		return 0
	}

	kname, kparams, err := slipstream.SplitKernelSpec(*kernel)
	if err != nil {
		return fail("%v", err)
	}
	if *params != "" {
		if kparams != "" {
			return fail("parameters given twice: -kernel %q and -params %q", *kernel, *params)
		}
		if kparams, err = slipstream.ParseKernelParams(*params); err != nil {
			return fail("%v", err)
		}
	}

	opts := slipstream.Options{CMPs: *cmps, Audit: *auditRun}
	parsedMode, err := slipstream.ParseMode(*mode)
	if err != nil {
		return fail("%v", err)
	}
	opts.Mode = parsedMode
	// The A-R policy and the coherence extensions only exist in slipstream
	// mode; Options.Validate rejects them elsewhere.
	if opts.Mode == slipstream.Slipstream {
		ar, err := slipstream.ParseARSync(*arsync)
		if err != nil {
			return fail("%v", err)
		}
		opts.ARSync = ar
		opts.TransparentLoads = *tl || *si
		opts.SelfInvalidate = *si
		opts.AdaptiveARSync = *adapt
	}

	ksize, err := slipstream.ParseKernelSize(*size)
	if err != nil {
		return fail("%v", err)
	}

	if *server != "" {
		// Observation and auditing happen daemon-side: the exporters hook
		// the simulating process, which is no longer this one.
		if *auditRun || *chromeOut != "" || *metricOut != "" || *cpuProf != "" || *memProf != "" {
			return fail("-audit, -trace-out, -metrics-out, -cpuprofile, and -memprofile act on the simulating process, which with -server is the daemon; drop them (slipsimd takes -audit)")
		}
		spec := slipstream.RunSpec{
			Kernel: kname, Params: kparams, Size: ksize, Mode: opts.Mode, ARSync: opts.ARSync,
			CMPs: *cmps, TransparentLoads: opts.TransparentLoads,
			SelfInvalidate: opts.SelfInvalidate, AdaptiveARSync: opts.AdaptiveARSync,
		}
		res, cached, err := client.New(*server).Run(context.Background(), spec)
		if err != nil {
			return fail("%v", err)
		}
		if !printReport(stdout, res, opts, ksize, *verbose) {
			return 1
		}
		if cached {
			fmt.Fprintln(stdout, "served: cache")
		} else {
			fmt.Fprintln(stdout, "served: simulated")
		}
		return 0
	}

	k, err := slipstream.NewKernelParams(kname, ksize, kparams)
	if err != nil {
		return fail("%v", err)
	}
	var chrome *slipstream.ChromeTrace
	if *chromeOut != "" {
		chrome = &slipstream.ChromeTrace{Name: fmt.Sprintf("%s/%s %s", *kernel, *size, *mode)}
		opts.Observers = append(opts.Observers, chrome)
	}
	var metrics *slipstream.Metrics
	if *metricOut != "" {
		metrics = &slipstream.Metrics{}
		opts.Observers = append(opts.Observers, metrics)
	}

	stopProfile, err := outfile.CPUProfile(*cpuProf)
	if err != nil {
		return fail("cpuprofile: %v", err)
	}
	writeMemProfile, err := outfile.MemProfile(*memProf)
	if err != nil {
		_ = stopProfile() // the memprofile error is the one to report
		return fail("memprofile: %v", err)
	}
	res, runErr := slipstream.Run(opts, k)
	if err := stopProfile(); err != nil {
		return fail("cpuprofile: %v", err)
	}
	if err := writeMemProfile(); err != nil {
		return fail("memprofile: %v", err)
	}
	if runErr != nil {
		return fail("%v", runErr)
	}
	if !printReport(stdout, res, opts, ksize, *verbose) {
		return 1
	}

	if chrome != nil {
		if err := outfile.Write(*chromeOut, chrome.WriteJSON); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "timeline: %d trace events -> %s (open in Perfetto / chrome://tracing)\n",
			chrome.Len(), *chromeOut)
	}
	if metrics != nil {
		write := metrics.WriteText
		if strings.HasSuffix(*metricOut, ".csv") {
			write = metrics.WriteCSV
		}
		if err := outfile.Write(*metricOut, write); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "metrics: -> %s\n", *metricOut)
	}
	return 0
}

// printReport writes the standard run report to w. It depends only on the
// Result and the requested options, so local and daemon-served runs print
// byte-identical reports. It reports false, after the verification
// failure, if the result did not verify.
func printReport(w io.Writer, res *slipstream.Result, opts slipstream.Options, ksize slipstream.KernelSize, verbose bool) bool {
	fmt.Fprintf(w, "%s  mode=%v", res.Kernel, res.Mode)
	if res.Mode == slipstream.Slipstream {
		fmt.Fprintf(w, "/%v tl=%v si=%v", res.ARSync, opts.TransparentLoads, opts.SelfInvalidate)
	}
	fmt.Fprintf(w, "  cmps=%d  size=%s\n", res.CMPs, ksize)
	fmt.Fprintf(w, "cycles: %d\n", res.Cycles)
	if res.VerifyErr != nil {
		fmt.Fprintf(w, "VERIFICATION FAILED: %v\n", res.VerifyErr)
		return false
	}
	fmt.Fprintln(w, "verification: ok")

	avg := res.AvgTask()
	fmt.Fprintf(w, "task avg:   %v\n", avg)
	if len(res.ATasks) > 0 {
		fmt.Fprintf(w, "A-task avg: %v  (recoveries: %d)\n", res.AvgATask(), res.Recoveries)
	}
	if opts.AdaptiveARSync {
		fmt.Fprintf(w, "adaptive: %d policy switches; final policies %v\n", res.PolicySwitches, res.FinalPolicies)
	}
	m := res.Mem
	fmt.Fprintf(w, "memory: L1 %d/%d hits, L2 %d hits %d misses, dir %d local %d remote\n",
		m.L1Hits, m.L1Hits+m.L1Misses, m.L2Hits, m.L2Misses, m.LocalDirReqs, m.RemoteDirReqs)
	fmt.Fprintf(w, "        %d invalidations, %d writebacks, %d interventions, %d merged fills, %d excl prefetches\n",
		m.Invalidations, m.Writebacks, m.Interventions, m.MergedFills, m.PrefetchExcl)
	if res.Mode == slipstream.Slipstream {
		fmt.Fprintf(w, "requests: reads %v  exclusives %v\n", res.Req.Reads, res.Req.Exclusives)
		if opts.TransparentLoads {
			fmt.Fprintf(w, "transparent loads: %.0f%% of %d A-reads issued transparent; %.0f%% got stale replies\n",
				res.TL.IssuedPct(), res.TL.AReadRequests, res.TL.TransparentReplyPct())
		}
		if opts.SelfInvalidate {
			fmt.Fprintf(w, "self-invalidation: %d hints, %d written back, %d invalidated\n",
				res.SI.HintsSent, res.SI.WrittenBack, res.SI.Invalidated)
		}
	}
	if verbose {
		for i, bd := range res.Tasks {
			fmt.Fprintf(w, "  task %2d: %v\n", i, bd)
		}
		for i, bd := range res.ATasks {
			fmt.Fprintf(w, "  A    %2d: %v\n", i, bd)
		}
	}
	return true
}
