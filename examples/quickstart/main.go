// Quickstart: simulate one of the paper's benchmarks under single mode and
// slipstream mode on an 8-node CMP multiprocessor and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slipstream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates SOR in both modes and writes the comparison to w.
func run(w io.Writer) error {
	const cmps = 8

	// Build one of the paper's nine benchmarks at a small size.
	kernel, err := slipstream.NewKernel("SOR", slipstream.SizeSmall)
	if err != nil {
		return err
	}

	// Conventional execution: one task per CMP, second processor idle.
	single, err := slipstream.Run(slipstream.Options{
		CMPs: cmps,
		Mode: slipstream.Single,
	}, kernel)
	if err != nil {
		return err
	}
	if single.VerifyErr != nil {
		return single.VerifyErr
	}

	// Slipstream execution: the second processor runs a reduced A-stream
	// that prefetches shared data for the full R-stream.
	kernel2, err := slipstream.NewKernel("SOR", slipstream.SizeSmall)
	if err != nil {
		return err
	}
	slip, err := slipstream.Run(slipstream.Options{
		CMPs:   cmps,
		Mode:   slipstream.Slipstream,
		ARSync: slipstream.L0, // zero-token local A-R synchronization
	}, kernel2)
	if err != nil {
		return err
	}
	if slip.VerifyErr != nil {
		return slip.VerifyErr
	}

	fmt.Fprintf(w, "SOR on %d CMP nodes (Table 1 machine)\n", cmps)
	fmt.Fprintf(w, "  single mode:     %9d cycles\n", single.Cycles)
	fmt.Fprintf(w, "  slipstream (L0): %9d cycles  (%.2fx vs single)\n",
		slip.Cycles, float64(single.Cycles)/float64(slip.Cycles))
	fmt.Fprintf(w, "  R-stream time:   %v\n", slip.AvgTask())
	fmt.Fprintf(w, "  A-stream time:   %v\n", slip.AvgATask())
	fmt.Fprintf(w, "  A-stream issued %d exclusive prefetches; %d fills merged\n",
		slip.Mem.PrefetchExcl, slip.Mem.MergedFills)
	return nil
}
