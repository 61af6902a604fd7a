// Customkernel: how to write your own SPMD workload against the public
// API. The kernel is a bounded producer/consumer pipeline: stage 0
// produces blocks of data, signals an event per block, and each later
// stage transforms its predecessor's output — exercising shared arrays,
// events, locks, and the Once helper.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"slipstream"
)

const (
	blocks    = 12
	blockSize = 256
)

// pipeline implements slipstream.Kernel.
type pipeline struct {
	stages [][]slipstream.F64 // per stage, per block
	checks slipstream.F64     // final checksum per block
	seed   int64
}

func (p *pipeline) Name() string { return "pipeline" }

// Setup allocates one buffer per (stage, block).
func (p *pipeline) Setup(prog *slipstream.Program) {
	nt := prog.NumTasks()
	p.stages = make([][]slipstream.F64, nt)
	for s := range p.stages {
		p.stages[s] = make([]slipstream.F64, blocks)
		for b := range p.stages[s] {
			p.stages[s][b] = prog.AllocF64(blockSize)
		}
	}
	p.checks = prog.AllocF64(blocks * 8)
}

// eventID identifies "stage s finished block b".
func eventID(stage, block int) int { return stage*blocks + block + 1 }

// Task: task 0 produces; task i transforms stage i-1's blocks. The last
// stage records checksums.
func (p *pipeline) Task(c *slipstream.Ctx) {
	me := c.ID()
	nt := c.NumTasks()
	// The pipeline's run-wide seed is a global side effect: computed once
	// by the R-stream and forwarded to the A-stream.
	seed := c.Once(func() int64 { return 42 })
	for b := 0; b < blocks; b++ {
		if me > 0 {
			// Wait for the previous stage to publish this block.
			c.WaitEvent(eventID(me-1, b))
		}
		out := p.stages[me][b]
		for i := 0; i < blockSize; i++ {
			var v float64
			if me == 0 {
				v = float64((int64(b*blockSize+i)*1103515245 + seed) % 1000)
			} else {
				v = p.stages[me-1][b].Load(c, i)
			}
			c.Compute(20)
			out.Store(c, i, v+float64(me))
		}
		if me < nt-1 {
			c.SignalEvent(eventID(me, b))
		} else {
			sum := 0.0
			for i := 0; i < blockSize; i++ {
				sum += out.Load(c, i)
			}
			p.checks.Store(c, b*8, sum)
		}
	}
	c.Barrier()
}

// Verify recomputes the pipeline in plain Go.
func (p *pipeline) Verify(prog *slipstream.Program) error {
	nt := prog.NumTasks()
	for b := 0; b < blocks; b++ {
		// Value after stage s is base + (0 + 1 + ... + s).
		want := 0.0
		for i := 0; i < blockSize; i++ {
			v := float64((int64(b*blockSize+i)*1103515245 + 42) % 1000)
			for s := 0; s < nt; s++ {
				v += float64(s)
			}
			want += v
		}
		if got := p.checks.Get(prog, b*8); got != want {
			return fmt.Errorf("block %d checksum = %v, want %v", b, got, want)
		}
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the pipeline in both modes and writes the report to w.
func run(w io.Writer) error {
	for _, mode := range []slipstream.Mode{slipstream.Single, slipstream.Slipstream} {
		opts := slipstream.Options{CMPs: 4, Mode: mode}
		if mode == slipstream.Slipstream {
			opts.ARSync = slipstream.G0 // A-R synchronization is slipstream-only
		}
		res, err := slipstream.Run(opts, &pipeline{})
		if err != nil {
			return err
		}
		if res.VerifyErr != nil {
			return fmt.Errorf("%v: %w", mode, res.VerifyErr)
		}
		fmt.Fprintf(w, "%-10v  %8d cycles  (avg task: %v)\n", mode, res.Cycles, res.AvgTask())
	}
	fmt.Fprintln(w, "\nBoth modes compute identical checksums; the A-streams' skipped")
	fmt.Fprintln(w, "stores and events never perturb the R-streams' results.")
	return nil
}
