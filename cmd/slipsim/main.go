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
	"flag"
	"fmt"
	"os"
	"strings"

	"slipstream"
	"slipstream/internal/buildinfo"
	"slipstream/internal/outfile"
	"slipstream/internal/service/client"
)

func main() {
	var (
		kernel    = flag.String("kernel", "SOR", "workload, optionally with parameters (\"SYNTH:mig=0.3,seed=7\"): "+strings.Join(slipstream.AllKernels(), ", "))
		params    = flag.String("params", "", "kernel parameters as \"k1=v1,k2=v2\" (parameterized kernels only; alternative to the NAME:k=v form)")
		list      = flag.Bool("list", false, "print the workload catalog with the SYNTH parameter schema and exit")
		mode      = flag.String("mode", "slipstream", "execution mode: sequential, single, double, slipstream")
		arsync    = flag.String("arsync", "L1", "A-R synchronization: L1, L0, G1, G0")
		cmps      = flag.Int("cmps", 8, "number of CMP nodes")
		size      = flag.String("size", "small", "problem size preset: tiny, small, paper")
		tl        = flag.Bool("tl", false, "enable transparent loads (slipstream only)")
		si        = flag.Bool("si", false, "enable self-invalidation (implies -tl)")
		adapt     = flag.Bool("adaptive", false, "vary the A-R policy dynamically (slipstream only)")
		auditRun  = flag.Bool("audit", false, "cross-check the run against conservation and coherence invariants")
		chromeOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file (open in Perfetto)")
		metricOut = flag.String("metrics-out", "", "write aggregated counters and latency histograms to this file (.csv for CSV)")
		server    = flag.String("server", "", "submit the run to the slipsimd daemon at this base URL instead of simulating locally")
		verbose   = flag.Bool("v", false, "print per-task breakdowns")
		version   = flag.Bool("version", false, "print version and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the local simulation to this file (read it with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file after the local simulation (read it with go tool pprof)")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("slipsim"))
		return
	}
	if *list {
		fmt.Print(slipstream.DescribeKernels())
		return
	}

	kname, kparams, err := slipstream.SplitKernelSpec(*kernel)
	if err != nil {
		fatalf("%v", err)
	}
	if *params != "" {
		if kparams != "" {
			fatalf("parameters given twice: -kernel %q and -params %q", *kernel, *params)
		}
		if kparams, err = slipstream.ParseKernelParams(*params); err != nil {
			fatalf("%v", err)
		}
	}

	opts := slipstream.Options{CMPs: *cmps, Audit: *auditRun}
	parsedMode, err := slipstream.ParseMode(*mode)
	if err != nil {
		fatalf("%v", err)
	}
	opts.Mode = parsedMode
	// The A-R policy and the coherence extensions only exist in slipstream
	// mode; Options.Validate rejects them elsewhere.
	if opts.Mode == slipstream.Slipstream {
		ar, err := slipstream.ParseARSync(*arsync)
		if err != nil {
			fatalf("%v", err)
		}
		opts.ARSync = ar
		opts.TransparentLoads = *tl || *si
		opts.SelfInvalidate = *si
		opts.AdaptiveARSync = *adapt
	}

	ksize, err := slipstream.ParseKernelSize(*size)
	if err != nil {
		fatalf("%v", err)
	}

	if *server != "" {
		// Observation and auditing happen daemon-side: the exporters hook
		// the simulating process, which is no longer this one.
		if *auditRun || *chromeOut != "" || *metricOut != "" || *cpuProf != "" || *memProf != "" {
			fatalf("-audit, -trace-out, -metrics-out, -cpuprofile, and -memprofile act on the simulating process, which with -server is the daemon; drop them (slipsimd takes -audit)")
		}
		spec := slipstream.RunSpec{
			Kernel: kname, Params: kparams, Size: ksize, Mode: opts.Mode, ARSync: opts.ARSync,
			CMPs: *cmps, TransparentLoads: opts.TransparentLoads,
			SelfInvalidate: opts.SelfInvalidate, AdaptiveARSync: opts.AdaptiveARSync,
		}
		res, cached, err := client.New(*server).Run(context.Background(), spec)
		if err != nil {
			fatalf("%v", err)
		}
		printReport(res, opts, ksize, *verbose)
		if cached {
			fmt.Println("served: cache")
		} else {
			fmt.Println("served: simulated")
		}
		return
	}

	k, err := slipstream.NewKernelParams(kname, ksize, kparams)
	if err != nil {
		fatalf("%v", err)
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
		fatalf("cpuprofile: %v", err)
	}
	writeMemProfile, err := outfile.MemProfile(*memProf)
	if err != nil {
		fatalf("memprofile: %v", err)
	}
	res, runErr := slipstream.Run(opts, k)
	if err := stopProfile(); err != nil {
		fatalf("cpuprofile: %v", err)
	}
	if err := writeMemProfile(); err != nil {
		fatalf("memprofile: %v", err)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
	printReport(res, opts, ksize, *verbose)

	if chrome != nil {
		if err := outfile.Write(*chromeOut, chrome.WriteJSON); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("timeline: %d trace events -> %s (open in Perfetto / chrome://tracing)\n",
			chrome.Len(), *chromeOut)
	}
	if metrics != nil {
		write := metrics.WriteText
		if strings.HasSuffix(*metricOut, ".csv") {
			write = metrics.WriteCSV
		}
		if err := outfile.Write(*metricOut, write); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("metrics: -> %s\n", *metricOut)
	}
}

// printReport renders the standard run report. It depends only on the
// Result and the requested options, so local and daemon-served runs print
// byte-identical reports. Exits non-zero on a verification failure.
func printReport(res *slipstream.Result, opts slipstream.Options, ksize slipstream.KernelSize, verbose bool) {
	fmt.Printf("%s  mode=%v", res.Kernel, res.Mode)
	if res.Mode == slipstream.Slipstream {
		fmt.Printf("/%v tl=%v si=%v", res.ARSync, opts.TransparentLoads, opts.SelfInvalidate)
	}
	fmt.Printf("  cmps=%d  size=%s\n", res.CMPs, ksize)
	fmt.Printf("cycles: %d\n", res.Cycles)
	if res.VerifyErr != nil {
		fmt.Printf("VERIFICATION FAILED: %v\n", res.VerifyErr)
		os.Exit(1)
	}
	fmt.Println("verification: ok")

	avg := res.AvgTask()
	fmt.Printf("task avg:   %v\n", avg)
	if len(res.ATasks) > 0 {
		fmt.Printf("A-task avg: %v  (recoveries: %d)\n", res.AvgATask(), res.Recoveries)
	}
	if opts.AdaptiveARSync {
		fmt.Printf("adaptive: %d policy switches; final policies %v\n", res.PolicySwitches, res.FinalPolicies)
	}
	m := res.Mem
	fmt.Printf("memory: L1 %d/%d hits, L2 %d hits %d misses, dir %d local %d remote\n",
		m.L1Hits, m.L1Hits+m.L1Misses, m.L2Hits, m.L2Misses, m.LocalDirReqs, m.RemoteDirReqs)
	fmt.Printf("        %d invalidations, %d writebacks, %d interventions, %d merged fills, %d excl prefetches\n",
		m.Invalidations, m.Writebacks, m.Interventions, m.MergedFills, m.PrefetchExcl)
	if res.Mode == slipstream.Slipstream {
		fmt.Printf("requests: reads %v  exclusives %v\n", res.Req.Reads, res.Req.Exclusives)
		if opts.TransparentLoads {
			fmt.Printf("transparent loads: %.0f%% of %d A-reads issued transparent; %.0f%% got stale replies\n",
				res.TL.IssuedPct(), res.TL.AReadRequests, res.TL.TransparentReplyPct())
		}
		if opts.SelfInvalidate {
			fmt.Printf("self-invalidation: %d hints, %d written back, %d invalidated\n",
				res.SI.HintsSent, res.SI.WrittenBack, res.SI.Invalidated)
		}
	}
	if verbose {
		for i, bd := range res.Tasks {
			fmt.Printf("  task %2d: %v\n", i, bd)
		}
		for i, bd := range res.ATasks {
			fmt.Printf("  A    %2d: %v\n", i, bd)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slipsim: "+format+"\n", args...)
	os.Exit(1)
}
