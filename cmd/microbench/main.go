// Command microbench runs the repository's hot-path microbenchmark harness
// (internal/microbench) and maintains the committed performance trajectory.
//
// Run mode measures every registered benchmark and writes a
// "slipstream-bench/1" JSON report:
//
//	microbench -out BENCH_6.json          # full run (1s per benchmark)
//	microbench -short                     # CI-speed run, report to stdout
//	microbench -run sim/engine/step       # subset by exact name
//
// Compare mode diffs two reports and gates on ns/op regressions:
//
//	microbench -warn 10 -fail 25 compare BENCH_6.json new.json
//
// exiting 1 when any benchmark regressed by at least the fail threshold
// (warnings print but pass), 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"slipstream/internal/microbench"
)

func main() {
	testing.Init() // registers test.benchtime, which sizes each measurement
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, then runs the benchmarks or
// compares two reports, and returns the exit status. Reports and the
// comparison go to stdout, progress and errors to stderr. A bad flag
// exits with status 2, as flag.ExitOnError does.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("microbench", flag.ExitOnError)
	flags.SetOutput(stderr)
	var (
		out       = flags.String("out", "", "write the JSON report to this file (default stdout)")
		short     = flags.Bool("short", false, "quick run: 50ms per benchmark instead of 1s")
		benchtime = flags.String("benchtime", "", "override time per benchmark (e.g. 200ms, 100x)")
		runList   = flags.String("run", "", "comma-separated exact benchmark names to run (default all)")
		best      = flags.Int("best", 3, "attempts per benchmark; the fastest is reported (noise only slows benchmarks down)")
		warnPct   = flags.Float64("warn", 10, "compare: warn at this ns/op regression percent")
		failPct   = flags.Float64("fail", 25, "compare: fail at this ns/op regression percent")
	)
	flags.Parse(args)

	if flags.NArg() > 0 {
		if flags.Arg(0) != "compare" || flags.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: microbench [flags] [compare OLD.json NEW.json]")
			return 2
		}
		return compare(flags.Arg(1), flags.Arg(2), *warnPct, *failPct, stdout, stderr)
	}

	bt := *benchtime
	if bt == "" {
		bt = "1s"
		if *short {
			bt = "50ms"
		}
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return 2
	}

	var filter []string
	if *runList != "" {
		filter = strings.Split(*runList, ",")
	}
	rep := microbench.RunN(*best, func(r microbench.Result) {
		fmt.Fprintf(stderr, "%-28s %12.2f ns/op %6d allocs/op %8d B/op %10d iters\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Iterations)
	}, filter...)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "microbench: no benchmarks matched", *runList)
		return 2
	}

	data, err := rep.Encode()
	if err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return 2
	}
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return 2
	}
	fmt.Fprintln(stderr, "wrote", *out)
	return 0
}

func compare(oldPath, newPath string, warnPct, failPct float64, stdout, stderr io.Writer) int {
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return 2
	}
	deltas := microbench.Compare(oldRep, newRep)
	for _, d := range deltas {
		switch {
		case d.OnlyOld:
			fmt.Fprintf(stdout, "%-28s only in %s\n", d.Name, oldPath)
		case d.OnlyNew:
			fmt.Fprintf(stdout, "%-28s only in %s\n", d.Name, newPath)
		case math.IsNaN(d.Pct):
			fmt.Fprintf(stdout, "%-28s not comparable\n", d.Name)
		default:
			fmt.Fprintf(stdout, "%-28s %12.2f -> %12.2f ns/op  %+7.2f%%\n", d.Name, d.OldNs, d.NewNs, d.Pct)
		}
	}
	warns, fails := microbench.Gate(deltas, warnPct, failPct)
	for _, d := range warns {
		fmt.Fprintf(stdout, "WARN %s regressed %.2f%% (threshold %.0f%%)\n", d.Name, d.Pct, warnPct)
	}
	for _, d := range fails {
		fmt.Fprintf(stdout, "FAIL %s regressed %.2f%% (threshold %.0f%%)\n", d.Name, d.Pct, failPct)
	}
	if len(fails) > 0 {
		return 1
	}
	return 0
}

func load(path string) (microbench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return microbench.Report{}, err
	}
	return microbench.Decode(data)
}
