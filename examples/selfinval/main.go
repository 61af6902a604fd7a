// Selfinval: a deep dive into Section 4 of the paper — transparent loads
// and self-invalidation — on Water-NS, whose lock-guarded force array is
// the migratory-sharing pattern SI targets. The example runs slipstream
// prefetch-only, then adds transparent loads, then adds self-invalidation,
// and prints what changes in the memory system.
//
//	go run ./examples/selfinval
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slipstream"
)

// simulate runs WATER-NS in slipstream mode with the given extensions.
func simulate(tl, si bool) (*slipstream.Result, error) {
	k, err := slipstream.NewKernel("WATER-NS", slipstream.SizeSmall)
	if err != nil {
		return nil, err
	}
	res, err := slipstream.Run(slipstream.Options{
		CMPs:             8,
		Mode:             slipstream.Slipstream,
		ARSync:           slipstream.G1, // the paper's Section 4 policy
		TransparentLoads: tl,
		SelfInvalidate:   si,
	}, k)
	if err != nil {
		return nil, err
	}
	if res.VerifyErr != nil {
		return nil, res.VerifyErr
	}
	return res, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the three configurations and writes the comparison to w.
func run(w io.Writer) error {
	pref, err := simulate(false, false)
	if err != nil {
		return err
	}
	tl, err := simulate(true, false)
	if err != nil {
		return err
	}
	tlsi, err := simulate(true, true)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "WATER-NS, 8 CMPs, one-token global A-R synchronization")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %12s %14s %12s\n", "configuration", "cycles", "interventions", "A-Only reads")
	for _, row := range []struct {
		name string
		res  *slipstream.Result
	}{
		{"prefetch only", pref},
		{"+ transparent loads", tl},
		{"+ transparent loads + SI", tlsi},
	} {
		aOnly := row.res.Req.Reads[2] // stats.AOnly
		fmt.Fprintf(w, "%-28s %12d %14d %12d\n", row.name, row.res.Cycles, row.res.Mem.Interventions, aOnly)
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "transparent loads: %.0f%% of %d A-stream reads issued transparently;\n",
		tlsi.TL.IssuedPct(), tlsi.TL.AReadRequests)
	fmt.Fprintf(w, "                   %.0f%% answered with a stale (transparent) copy, rest upgraded\n",
		tlsi.TL.TransparentReplyPct())
	fmt.Fprintf(w, "self-invalidation: %d hints sent, %d lines invalidated (migratory),\n",
		tlsi.SI.HintsSent, tlsi.SI.Invalidated)
	fmt.Fprintf(w, "                   %d written back and downgraded (producer-consumer)\n",
		tlsi.SI.WrittenBack)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A transparent load returns a possibly-stale copy without disturbing the")
	fmt.Fprintln(w, "exclusive owner (no premature migration); the future-sharer bit it sets")
	fmt.Fprintln(w, "lets the directory hint the owner to flush the line at its next sync point,")
	fmt.Fprintln(w, "so consumers find the data in memory (Figure 8 of the paper).")
	return nil
}
