// Leadtrace: use an observer to watch the slipstream mechanism work. For
// each A-R synchronization policy the example runs CG with a
// slipstream.Leads observer attached, and prints how far ahead of its
// R-stream the A-stream reaches each session boundary — the lead that
// decides whether its prefetches are timely (Figure 7 of the paper) —
// along with the A-stream's time spent waiting for tokens and the adaptive
// controller's choices for comparison.
//
//	go run ./examples/leadtrace
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slipstream"
)

const (
	kernel = "CG"
	cmps   = 8
)

// simulate runs the kernel in slipstream mode starting from policy ar
// (switching per pair at run time when adaptive is set) and returns the
// result with the mean A-over-R session lead.
func simulate(ar slipstream.ARSync, adaptive bool) (*slipstream.Result, float64, error) {
	k, err := slipstream.NewKernel(kernel, slipstream.SizeSmall)
	if err != nil {
		return nil, 0, err
	}
	leads := &slipstream.Leads{}
	res, err := slipstream.Run(slipstream.Options{
		CMPs: cmps, Mode: slipstream.Slipstream, ARSync: ar, AdaptiveARSync: adaptive,
		Observers: []slipstream.Observer{leads},
	}, k)
	if err != nil {
		return nil, 0, err
	}
	if res.VerifyErr != nil {
		return nil, 0, res.VerifyErr
	}
	return res, leads.Mean(), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates every policy and the adaptive controller and writes the
// lead table to w.
func run(w io.Writer) error {
	fmt.Fprintf(w, "%s on %d CMPs: A-stream lead over R-stream at session boundaries\n\n", kernel, cmps)
	fmt.Fprintf(w, "%-10s %14s %16s %12s\n", "policy", "mean lead", "A token wait", "cycles")

	for _, ar := range slipstream.ARSyncs {
		res, lead, err := simulate(ar, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %11.0f cy %13d cy %12d\n", ar, lead, res.AvgATask().ARSync, res.Cycles)
	}

	// The adaptive controller (the paper's Section 6 future work) picks a
	// policy per pair at run time from the same evidence.
	res, lead, err := simulate(slipstream.L1, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %11.0f cy %13d cy %12d  (switches: %d, final: %v)\n",
		"adaptive", lead, res.AvgATask().ARSync, res.Cycles,
		res.PolicySwitches, res.FinalPolicies)

	fmt.Fprintln(w, "\nLooser policies (L1, G1) let the A-stream bank a larger lead, making")
	fmt.Fprintln(w, "more of its fetches timely — at the risk of premature migration; tighter")
	fmt.Fprintln(w, "policies (L0, G0) keep it just ahead. The adaptive controller tightens")
	fmt.Fprintln(w, "pairs whose windows show premature fetches and loosens ones running late.")
	return nil
}
