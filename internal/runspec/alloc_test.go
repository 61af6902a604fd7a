package runspec

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
)

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// skipIfAudited skips allocation pins when SLIPSIM_AUDIT=1 attaches the
// auditor to every run, since its shadow state is allocated per run.
func skipIfAudited(t *testing.T) {
	if os.Getenv("SLIPSIM_AUDIT") == "1" {
		t.Skip("the forced auditor allocates its shadow state per run")
	}
}

// progSpy keeps the Program its kernel verified, so a test can read the
// image and verify it again after the run.
type progSpy struct {
	core.Kernel
	prog *core.Program
}

func (s *progSpy) Verify(p *core.Program) error {
	s.prog = p
	return s.Kernel.Verify(p)
}

// TestRerunAllocatesItsImage pins what a second core.Run of a kernel its
// caller keeps allocates: the run's memory image, the reference its
// Verify builds, and a fixed slack for the run's own records (runner,
// task contexts and processes, cache and directory headers, the result).
// The cache frames, directory pages and event queue come back from the
// run before, and SI actions from a pool. OCEAN (nearest-neighbour
// sharing), MG (a grid hierarchy) and WATER-NS (migratory, lock-guarded
// sharing) run at small size in slipstream mode with TL+SI on 4 CMPs.
func TestRerunAllocatesItsImage(t *testing.T) {
	skipIfAudited(t)
	const slack = 40 << 10
	opts := core.Options{Mode: core.ModeSlipstream, CMPs: 4, TransparentLoads: true, SelfInvalidate: true}
	for _, name := range []string{"OCEAN", "MG", "WATER-NS"} {
		k, err := kernels.New(name, kernels.Small)
		if err != nil {
			t.Fatal(err)
		}
		spy := &progSpy{Kernel: k}
		run := func() {
			res, err := core.Run(opts, spy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.VerifyErr != nil {
				t.Fatalf("%s: verification: %v", name, res.VerifyErr)
			}
		}
		run()
		got := allocated(run)
		image := uint64(spy.prog.Mem().Size())
		ref := allocated(func() { _ = spy.Kernel.Verify(spy.prog) })
		t.Logf("%s: rerun allocated %d B: image %d B, Verify reference %d B", name, got, image, ref)
		if got > image+ref+slack {
			t.Errorf("%s: rerun allocated %d B, over its %d B image + %d B Verify reference + %d B slack by %d B",
				name, got, image, ref, slack, got-image-ref-slack)
		}
	}
}

// TestColdTinyRunAllocation pins what a cold tiny SYNTH spec run, a served
// miss, allocates in a process that has run before: the mean over 20
// seeds must not exceed what it allocated before Mem was paged, in single
// mode and in slipstream mode with TL+SI, on 2 and 4 CMPs. A larger Mem
// page or a new per-run cost shows here first.
func TestColdTinyRunAllocation(t *testing.T) {
	skipIfAudited(t)
	cases := []struct {
		mode  RunSpec
		cmps  int
		limit float64 // KiB per run
	}{
		{RunSpec{Mode: core.ModeSingle}, 2, 34.6},
		{RunSpec{Mode: core.ModeSlipstream, TransparentLoads: true, SelfInvalidate: true}, 2, 43.8},
		{RunSpec{Mode: core.ModeSingle}, 4, 53.7},
		{RunSpec{Mode: core.ModeSlipstream, TransparentLoads: true, SelfInvalidate: true}, 4, 71.2},
	}
	const seeds = 20
	for _, c := range cases {
		spec := func(seed int) RunSpec {
			sp := c.mode
			sp.Kernel, sp.Size, sp.CMPs = "SYNTH", kernels.Tiny, c.cmps
			sp.Params = kernels.Params(fmt.Sprintf("seed=%d", seed))
			return sp.Normalize()
		}
		run := func(seed int) {
			if _, err := spec(seed).Run(); err != nil {
				t.Fatal(err)
			}
		}
		run(seeds) // a seed outside the measured ones fills the free lists
		got := float64(allocated(func() {
			for seed := 0; seed < seeds; seed++ {
				run(seed)
			}
		})) / seeds / 1024
		t.Logf("%s: %.1f KiB a run, limit %.1f", spec(0), got, c.limit)
		if got > c.limit {
			t.Errorf("%s: a cold run allocated %.1f KiB, over %.1f KiB", spec(0), got, c.limit)
		}
	}
}
