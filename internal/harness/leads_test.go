package harness

import (
	"fmt"
	"strings"
	"testing"

	"slipstream/internal/kernels"
)

// TestExtLeadsPinned pins every mean A-over-R session lead of the lead
// study at tiny size on 2 and 4 CMPs, bit for bit: the study's pairing of
// A and R arrivals must not drift however its runs are observed.
func TestExtLeadsPinned(t *testing.T) {
	want := []struct {
		key  string
		lead float64
	}{
		{"FFT/L1", 7117.541666666667},
		{"FFT/L0", 1385.5416666666667},
		{"FFT/G1", 6992.041666666667},
		{"FFT/G0", 0},
		{"OCEAN/L1", 10172.625},
		{"OCEAN/L0", 3258.5},
		{"OCEAN/G1", 7180.875},
		{"OCEAN/G0", 822.5833333333334},
		{"WATER-NS/L1", 14436.333333333334},
		{"WATER-NS/L0", 9226.75},
		{"WATER-NS/G1", 12214.291666666666},
		{"WATER-NS/G0", 9159.375},
		{"WATER-SP/L1", 29408.75},
		{"WATER-SP/L0", 16481.791666666668},
		{"WATER-SP/G1", 24336.333333333332},
		{"WATER-SP/G0", 5299.041666666667},
		{"SOR/L1", 671.875},
		{"SOR/L0", 424.75},
		{"SOR/G1", 671.875},
		{"SOR/G0", 520.375},
		{"LU/L1", 75507.02777777778},
		{"LU/L0", 27144.277777777777},
		{"LU/G1", 46114.416666666664},
		{"LU/G0", 21955.03125},
		{"CG/L1", 3004.1125},
		{"CG/L0", 824.7375},
		{"CG/G1", 2573.9375},
		{"CG/G0", 389.875},
		{"MG/L1", 3847.25},
		{"MG/L0", 1897.5384615384614},
		{"MG/G1", 2944.173076923077},
		{"MG/G0", 397.52},
		{"SP/L1", 6163.0546875},
		{"SP/L0", 1630.734375},
		{"SP/G1", 5759.0234375},
		{"SP/G0", 1950.9270833333333},
	}
	s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}})
	rows, err := s.ExtLeadsData(kernels.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		key := fmt.Sprintf("%s/%v", row.Kernel, row.AR)
		if key != want[i].key || row.MeanLead != want[i].lead {
			t.Errorf("row %d: %s = %v, want %s = %v", i, key, row.MeanLead, want[i].key, want[i].lead)
		}
	}
}

// TestExtLeadsRunsAreObserved checks that the lead study's runs reach the
// session's observers like every other figure's: each of its 36 runs
// (9 kernels x 4 policies) lands in the exported metrics.
func TestExtLeadsRunsAreObserved(t *testing.T) {
	s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}, Observe: true})
	if err := s.RunFigures("leads"); err != nil {
		t.Fatal(err)
	}
	var mb strings.Builder
	if err := s.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mb.String(), "counter run.count 36\n") {
		t.Errorf("metrics missing run.count 36:\n%s", mb.String())
	}
}
