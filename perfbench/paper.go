package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
)

// paperKernels are the paper's Table 2 benchmarks less LU, whose
// slipstream run alone outlasts the other eight together.
var paperKernels = []string{"FFT", "OCEAN", "WATER-NS", "WATER-SP", "SOR", "CG", "MG", "SP"}

// paperCMPs is the machine size of the paper workloads.
const paperCMPs = 8

// paperSpec is one kernel of a paper workload at the given size.
func paperSpec(kernel string, size kernels.Size, slipstream bool) runspec.RunSpec {
	sp := runspec.RunSpec{Kernel: kernel, Size: size, Mode: core.ModeSingle, CMPs: paperCMPs}
	if slipstream {
		sp.Mode = core.ModeSlipstream
		sp.ARSync = core.OneTokenLocal
		sp.TransparentLoads, sp.SelfInvalidate = true, true
	}
	return sp.Normalize()
}

// runCounts are the simulated statistics of one run, which must repeat
// exactly whenever the same run is simulated again.
type runCounts struct {
	cycles, accesses, l1Misses, l2Hits, l2Misses, remoteDir, invals int64
	tlIssued, siHints, recoveries, arsync                           int64
}

func countsOf(res *core.Result) runCounts {
	c := runCounts{
		cycles:     res.Cycles,
		accesses:   res.Mem.L1Hits + res.Mem.L1Misses,
		l1Misses:   res.Mem.L1Misses,
		l2Hits:     res.Mem.L2Hits,
		l2Misses:   res.Mem.L2Misses,
		remoteDir:  res.Mem.RemoteDirReqs,
		invals:     res.Mem.Invalidations,
		tlIssued:   res.TL.TransparentIssued,
		siHints:    res.SI.HintsSent,
		recoveries: int64(res.Recoveries),
	}
	for _, bd := range res.ATasks {
		c.arsync += bd.ARSync
	}
	return c
}

func (c *runCounts) add(o runCounts) {
	c.cycles += o.cycles
	c.accesses += o.accesses
	c.l1Misses += o.l1Misses
	c.l2Hits += o.l2Hits
	c.l2Misses += o.l2Misses
	c.remoteDir += o.remoteDir
	c.invals += o.invals
	c.tlIssued += o.tlIssued
	c.siHints += o.siHints
	c.recoveries += o.recoveries
	c.arsync += o.arsync
}

// setLayerCounts reports summed simulated statistics as per-layer metrics.
func (r *report) setLayerCounts(c runCounts) {
	r.set("core.sim_mcycles", float64(c.cycles)/1e6)
	r.set("core.recoveries", float64(c.recoveries))
	r.set("core.arsync_mcycles", float64(c.arsync)/1e6)
	r.set("memsys.accesses", float64(c.accesses))
	if c.accesses > 0 {
		r.set("memsys.l1_miss_rate", float64(c.l1Misses)/float64(c.accesses))
	}
	if l2 := c.l2Hits + c.l2Misses; l2 > 0 {
		r.set("memsys.l2_miss_rate", float64(c.l2Misses)/float64(l2))
	}
	r.set("memsys.remote_dir_reqs", float64(c.remoteDir))
	r.set("memsys.invalidations", float64(c.invals))
	r.set("memsys.tl_issued", float64(c.tlIssued))
	r.set("memsys.si_hints", float64(c.siHints))
}

// paperBench is one set-up of a paper workload: the kernels, built once
// and simulated afresh in every pass.
type paperBench struct {
	names   []string
	kernels []core.Kernel
	opts    []core.Options
}

// setupPaper builds the paper-size kernels and warms the process up with
// a tiny-size run of each in the same mode. It returns how long building
// the kernels took.
func setupPaper(slipstream bool) (*paperBench, time.Duration, error) {
	b := &paperBench{names: paperKernels}
	start := time.Now()
	for _, name := range paperKernels {
		sp := paperSpec(name, kernels.Paper, slipstream)
		k, err := kernels.NewParams(sp.Kernel, sp.Size, sp.Params)
		if err != nil {
			return nil, 0, err
		}
		b.kernels = append(b.kernels, k)
		b.opts = append(b.opts, sp.Options())
	}
	built := time.Since(start)
	for _, name := range paperKernels {
		sp := paperSpec(name, kernels.Tiny, slipstream)
		res, err := sp.Run()
		if err == nil && res.VerifyErr != nil {
			err = res.VerifyErr
		}
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %v: %w", sp, err)
		}
	}
	return b, built, nil
}

// kernelRun is one simulated kernel within a pass.
type kernelRun struct {
	kernel              int // index into paperBench.kernels
	wall, setup, verify time.Duration
	counts              runCounts
	steps               int64 // engine events; counted on observed runs only
}

// paperPass is one pass over every kernel; runs that failed are left out.
type paperPass struct {
	alloc uint64
	gc    uint64
	runs  []kernelRun
}

func (p *paperPass) counts() runCounts {
	var c runCounts
	for _, r := range p.runs {
		c.add(r.counts)
	}
	return c
}

// paperRunner executes passes and checks every run as it completes.
type paperRunner struct {
	b      *paperBench
	rep    *report
	host   *hostSpeed
	tr     *tracer // non-nil: wrap kernels to time Setup and Verify
	counts map[string]runCounts
	steps  map[string]int64
}

// pass simulates each kernel once; observe attaches the step counter.
// Each run is scaled by the host speed averaged over the probes on either
// side of it.
func (pr *paperRunner) pass(observe bool) paperPass {
	h0 := readHost()
	var p paperPass
	before := pr.host.measure()
	for i, k := range pr.b.kernels {
		name := pr.b.names[i]
		opts := pr.b.opts[i]
		var tk *timedKernel
		if pr.tr != nil {
			tk = &timedKernel{Kernel: k, tr: pr.tr, parent: pr.tr.newID()}
			k = tk
		}
		var steps *stepCounter
		if observe {
			steps = &stepCounter{}
			opts.Observers = append(opts.Observers, steps)
		}
		t0 := time.Now()
		res, err := core.Run(opts, k)
		wall := time.Since(t0)
		if tk != nil {
			pr.tr.record(span{ID: tk.parent, Name: "core.run", Note: name}, t0)
		}
		after := pr.host.measure()
		speed := before.mean(after)
		before = after
		kr := kernelRun{kernel: i, wall: speed.scale(wall), steps: -1}
		pr.rep.Attempted++
		if tk != nil {
			kr.setup, kr.verify = speed.scale(tk.setup), speed.scale(tk.verify)
		}
		if err == nil && res.VerifyErr != nil {
			pr.rep.fail("%s: verification: %v", name, res.VerifyErr)
			err = res.VerifyErr
		}
		if err != nil {
			pr.rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			continue
		}
		kr.counts = countsOf(res)
		if want, ok := pr.counts[name]; !ok {
			pr.counts[name] = kr.counts
		} else if kr.counts != want {
			pr.rep.fail("%s: simulated statistics %+v differ from an earlier pass's %+v", name, kr.counts, want)
		}
		if observe {
			kr.steps = steps.steps
			if want, ok := pr.steps[name]; !ok {
				pr.steps[name] = kr.steps
			} else if kr.steps != want {
				pr.rep.fail("%s: %d engine events, an earlier traced pass had %d", name, kr.steps, want)
			}
		}
		p.runs = append(p.runs, kr)
	}
	h1 := readHost()
	p.alloc, p.gc = h1.allocBytes-h0.allocBytes, h1.gcCycles-h0.gcCycles
	return p
}

// phase repeats passes for budget.
func (pr *paperRunner) phase(budget time.Duration, observe bool) []paperPass {
	var passes []paperPass
	timedPhase(budget, func() { passes = append(passes, pr.pass(observe)) })
	return passes
}

// runPaper runs one of the two paper workloads.
func runPaper(cfg config, slipstream bool) (*report, error) {
	var host *hostSpeed
	if !cfg.trace {
		host = newHostSpeed()
	}
	var b *paperBench
	var setups, builds []float64
	before := host.measure()
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		nb, built, err := setupPaper(slipstream)
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		after := host.measure()
		speed := before.mean(after)
		before = after
		setups = append(setups, speed.scale(took).Seconds())
		builds = append(builds, ms(speed.scale(built)))
		b = nb
	}

	rep := newReport(cfg.trace)
	rep.host = host
	pr := &paperRunner{b: b, rep: rep, host: host, counts: make(map[string]runCounts), steps: make(map[string]int64)}
	if !cfg.trace {
		passes := pr.phase(cfg.budget, false)
		// Per-kernel medians resist the host's speed changing under a run
		// better than medians of whole passes.
		perKernel := make([][]float64, len(b.kernels))
		var allocs []float64
		for _, p := range passes {
			for _, r := range p.runs {
				perKernel[r.kernel] = append(perKernel[r.kernel], r.wall.Seconds())
			}
			allocs = append(allocs, float64(p.alloc)/1e6)
		}
		var wall float64
		kernelMS := make([]float64, len(perKernel))
		for i, w := range perKernel {
			kernelMS[i] = 1e3 * median(w)
			wall += kernelMS[i] / 1e3
		}
		var accesses int64
		for _, c := range pr.counts {
			accesses += c.accesses
		}
		rep.set("setup_s", median(setups))
		rep.set("wall_s", wall)
		if accesses > 0 {
			rep.set("ns_per_access", wall*1e9/float64(accesses))
		}
		rep.set("alloc_mb", median(allocs))
		rep.set("peak_rss_mb", peakRSSMB())
		rep.set("req_per_s", float64(len(perKernel))/wall)
		rep.set("req_p50_ms", quantile(kernelMS, 0.5))
		rep.set("req_p99_ms", quantile(kernelMS, 0.99))
		return rep, nil
	}

	// Traced run, in raw host time: untraced passes for half the budget give
	// the core times without observation; observed, profiled passes give
	// the rest.
	pr.tr = newTracer()
	pr.tr.on.Store(true)
	plain := pr.phase(cfg.budget/2, false)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := pr.phase(cfg.budget/2, true)
	prof.stop()

	var runS, simS, tracedSimS, setupMS, verifyMS, gcs []float64
	coreTimes := func(p paperPass) (run, sim, setup, verify float64) {
		for _, r := range p.runs {
			run += r.wall.Seconds()
			setup += r.setup.Seconds()
			verify += r.verify.Seconds()
		}
		return run, run - setup - verify, setup * 1e3, verify * 1e3
	}
	for _, p := range plain {
		run, sim, setup, verify := coreTimes(p)
		runS, simS = append(runS, run), append(simS, sim)
		setupMS, verifyMS = append(setupMS, setup), append(verifyMS, verify)
	}
	for _, p := range traced {
		_, sim, _, _ := coreTimes(p)
		tracedSimS = append(tracedSimS, sim)
		gcs = append(gcs, float64(p.gc))
	}
	var events int64
	for _, r := range traced[0].runs {
		events += r.steps
	}

	rep.set("kernels.new_ms", median(builds))
	rep.set("kernels.setup_ms", median(setupMS))
	rep.set("kernels.verify_ms", median(verifyMS))
	rep.set("core.run_s", median(runS))
	rep.set("core.sim_s", median(simS))
	rep.setLayerCounts(traced[0].counts())
	rep.set("sim.events", float64(events))
	if events > 0 {
		rep.set("sim.ns_per_event", median(simS)*1e9/float64(events))
	}
	rep.set("obs.traced_overhead_pct", 100*(median(tracedSimS)/median(simS)-1))
	rep.set("gc.cycles", median(gcs))

	shares, err := prof.cpuShares(cfg.dir)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		rep.set(name, v)
	}
	if err := pr.tr.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	return rep, nil
}
