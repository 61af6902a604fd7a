// Command advisor implements the paper's Section 6 goal of "development
// and run-time environments that allow users to choose the best mode to
// efficiently utilize system resources": it sweeps a benchmark across
// every execution mode and slipstream configuration on the target machine
// size and prints a ranked recommendation, including whether slipstream
// should enable transparent loads and self-invalidation and which A-R
// synchronization policy fits.
//
// Usage:
//
//	advisor -kernel CG -cmps 16 -size paper
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"slipstream"
	"slipstream/internal/buildinfo"
)

type candidate struct {
	label  string
	opts   slipstream.Options
	cycles int64
	note   string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, writes the ranked
// recommendation to stdout and each measurement to stderr. A bad flag
// exits with status 2, as flag.ExitOnError does.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("advisor", flag.ExitOnError)
	flags.SetOutput(stderr)
	var (
		kernel  = flags.String("kernel", "CG", "benchmark: "+strings.Join(slipstream.Kernels(), ", "))
		cmps    = flags.Int("cmps", 16, "number of CMP nodes")
		size    = flags.String("size", "small", "problem size preset: tiny, small, paper")
		version = flags.Bool("version", false, "print version and exit")
	)
	flags.Parse(args)
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("advisor"))
		return nil
	}

	ksize, err := slipstream.ParseKernelSize(*size)
	if err != nil {
		return err
	}

	cands := []candidate{
		{label: "single", opts: slipstream.Options{Mode: slipstream.Single},
			note: "one task per CMP, second processor idle"},
		{label: "double", opts: slipstream.Options{Mode: slipstream.Double},
			note: "two parallel tasks per CMP (more concurrency)"},
	}
	for _, ar := range slipstream.ARSyncs {
		cands = append(cands, candidate{
			label: "slipstream/" + ar.String(),
			opts:  slipstream.Options{Mode: slipstream.Slipstream, ARSync: ar},
			note:  "prefetch only",
		})
	}
	cands = append(cands,
		candidate{label: "slipstream/L0+FQ",
			opts: slipstream.Options{Mode: slipstream.Slipstream, ARSync: slipstream.L0, ForwardQueue: true},
			note: "A-to-R address forwarding queue (Section 6)"},
		candidate{label: "slipstream/adaptive",
			opts: slipstream.Options{Mode: slipstream.Slipstream, ARSync: slipstream.L1, AdaptiveARSync: true},
			note: "dynamic A-R policy (Section 6)"},
		candidate{label: "slipstream/G1+TL",
			opts: slipstream.Options{Mode: slipstream.Slipstream, ARSync: slipstream.G1, TransparentLoads: true},
			note: "transparent loads"},
		candidate{label: "slipstream/G1+TL+SI",
			opts: slipstream.Options{Mode: slipstream.Slipstream, ARSync: slipstream.G1, TransparentLoads: true, SelfInvalidate: true},
			note: "transparent loads + self-invalidation"},
	)

	fmt.Fprintf(stdout, "advising for %s on %d CMP nodes (size %s)\n\n", *kernel, *cmps, ksize)
	for i := range cands {
		k, err := slipstream.NewKernel(*kernel, ksize)
		if err != nil {
			return err
		}
		cands[i].opts.CMPs = *cmps
		res, err := slipstream.Run(cands[i].opts, k)
		if err != nil {
			return fmt.Errorf("%s: %w", cands[i].label, err)
		}
		if res.VerifyErr != nil {
			return fmt.Errorf("%s: verification: %w", cands[i].label, res.VerifyErr)
		}
		cands[i].cycles = res.Cycles
		fmt.Fprintf(stderr, "  measured %-22s %12d cycles\n", cands[i].label, res.Cycles)
	}

	// Stable, so configurations that tie keep their candidate order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cycles < cands[j].cycles })
	best := cands[0]

	fmt.Fprintf(stdout, "%-24s %14s %9s\n", "configuration", "cycles", "slowdown")
	fmt.Fprintln(stdout, strings.Repeat("-", 50))
	for _, c := range cands {
		fmt.Fprintf(stdout, "%-24s %14d %8.2fx\n", c.label, c.cycles, float64(c.cycles)/float64(best.cycles))
	}
	fmt.Fprintf(stdout, "\nrecommendation: %s (%s)\n", best.label, best.note)
	if strings.HasPrefix(best.label, "slipstream") {
		fmt.Fprintln(stdout, "the machine has reached its concurrency limit for this workload;")
		fmt.Fprintln(stdout, "use the second processor of each CMP to reduce overheads instead.")
	} else if best.label == "double" {
		fmt.Fprintln(stdout, "there is still exploitable task-level parallelism at this machine size;")
		fmt.Fprintln(stdout, "slipstream mode is better reserved for larger configurations.")
	} else {
		fmt.Fprintln(stdout, "neither extra concurrency nor slipstream assistance pays off here;")
		fmt.Fprintln(stdout, "leave the second processor idle (or try a larger problem size).")
	}
	return nil
}
