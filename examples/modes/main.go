// Modes: sweep a benchmark across machine sizes and every execution mode —
// single, double, and slipstream under all four A-R synchronization
// policies — reproducing one panel of the paper's Figure 5.
//
//	go run ./examples/modes [kernel]
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slipstream"
)

func main() {
	name := "CG"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	if err := run(os.Stdout, name); err != nil {
		log.Fatal(err)
	}
}

// run sweeps the named kernel and writes the speedup table to w.
func run(w io.Writer, name string) error {
	cycles := func(opts slipstream.Options) (int64, error) {
		k, err := slipstream.NewKernel(name, slipstream.SizeSmall)
		if err != nil {
			return 0, err
		}
		res, err := slipstream.Run(opts, k)
		if err != nil {
			return 0, err
		}
		if res.VerifyErr != nil {
			return 0, fmt.Errorf("%v/%v: %w", opts.Mode, opts.ARSync, res.VerifyErr)
		}
		return res.Cycles, nil
	}

	cmpCounts := []int{2, 4, 8, 16}
	singles := make(map[int]int64)
	for _, c := range cmpCounts {
		n, err := cycles(slipstream.Options{CMPs: c, Mode: slipstream.Single})
		if err != nil {
			return err
		}
		singles[c] = n
	}

	fmt.Fprintf(w, "%s: speedup relative to single mode (Figure 5 panel)\n\n", name)
	fmt.Fprintf(w, "%-8s", "mode")
	for _, c := range cmpCounts {
		fmt.Fprintf(w, "  %2d CMPs", c)
	}
	fmt.Fprintln(w)

	row := func(label string, opts func(c int) slipstream.Options) error {
		fmt.Fprintf(w, "%-8s", label)
		for _, c := range cmpCounts {
			n, err := cycles(opts(c))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %7.2f", float64(singles[c])/float64(n))
		}
		fmt.Fprintln(w)
		return nil
	}
	if err := row("double", func(c int) slipstream.Options {
		return slipstream.Options{CMPs: c, Mode: slipstream.Double}
	}); err != nil {
		return err
	}
	for _, ar := range slipstream.ARSyncs {
		if err := row(ar.String(), func(c int) slipstream.Options {
			return slipstream.Options{CMPs: c, Mode: slipstream.Slipstream, ARSync: ar}
		}); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nL1/L0 = one/zero-token local, G1/G0 = one/zero-token global (Section 3.2)")
	return nil
}
