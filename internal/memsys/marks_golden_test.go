package memsys_test

import (
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/runspec"
)

// TestFrameReuseAfterGoldenRuns runs every kernel's tiny golden spec
// (slipstream with transparent loads and self-invalidation on 8 CMPs) and
// checks the storage each run released: all 8 L2s and 16 L1s, with sets
// marked, and every frame that is not zero in a marked set. A frame
// written outside a marked set would survive Reset into the next run, and
// Finalize's and the auditor's walks would skip it.
func TestFrameReuseAfterGoldenRuns(t *testing.T) {
	memsys.TakeReleased() // start from empty lists: only the runs' storage is checked
	for _, name := range kernels.AllNames() {
		sp := runspec.RunSpec{
			Kernel: name, Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 8,
			TransparentLoads: true, SelfInvalidate: true,
		}
		if _, err := sp.Run(); err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		items, marked, err := memsys.TakeReleased()
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		if items != 3*sp.CMPs || marked == 0 {
			t.Fatalf("%v released %d caches with %d marked sets, want %d caches and some marked sets", sp, items, marked, 3*sp.CMPs)
		}
	}
}
