package harness

import (
	"strings"
	"testing"

	"slipstream/internal/kernels"
	"slipstream/internal/stats"
)

func tinySession() *Session {
	var sb strings.Builder
	return NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}, Out: &sb})
}

func TestFig1DataShape(t *testing.T) {
	s := tinySession()
	data, err := s.Fig1Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 9 {
		t.Fatalf("kernels covered = %d, want 9", len(data))
	}
	for name, vs := range data {
		if len(vs) != 2 {
			t.Fatalf("%s: %d points, want 2", name, len(vs))
		}
		for _, v := range vs {
			if v <= 0 {
				t.Fatalf("%s: non-positive speedup %v", name, v)
			}
		}
	}
}

func TestFig4SpeedupsGrowWithMachine(t *testing.T) {
	s := tinySession()
	data, err := s.Fig4Data()
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for _, vs := range data {
		if vs[1] > vs[0] {
			grew++
		}
	}
	// At tiny sizes a few kernels may flatline between 2 and 4 CMPs, but
	// most must still gain from the doubled machine.
	if grew < 5 {
		t.Errorf("only %d of 9 kernels sped up from 2 to 4 CMPs", grew)
	}
}

func TestFig5DataCoversAllSeries(t *testing.T) {
	s := tinySession()
	data, err := s.Fig5Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 9 {
		t.Fatalf("panels = %d, want 9", len(data))
	}
	for _, ser := range data {
		for _, label := range Fig5Labels {
			if len(ser.Modes[label]) != len(ser.CMPs) {
				t.Fatalf("%s/%s: %d points, want %d",
					ser.Kernel, label, len(ser.Modes[label]), len(ser.CMPs))
			}
		}
	}
}

func TestFig6BreakdownsNormalize(t *testing.T) {
	s := tinySession()
	data, err := s.Fig6Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data {
		if row.Norm <= 0 {
			t.Fatalf("%s: non-positive norm", row.Kernel)
		}
		// The single-mode breakdown must sum to its own norm.
		if got := float64(row.Single.Total()); got != row.Norm {
			t.Fatalf("%s: single total %v != norm %v", row.Kernel, got, row.Norm)
		}
	}
}

func TestFig7PercentagesSumTo100(t *testing.T) {
	s := tinySession()
	data, err := s.Fig7Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data {
		if row.Req.TotalReads() == 0 {
			continue
		}
		sum := 0.0
		for _, c := range []stats.ReqClass{stats.ATimely, stats.ALate, stats.AOnly, stats.RTimely, stats.RLate, stats.ROnly} {
			sum += row.Req.ReadPct(c)
		}
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("%s/%v: read percentages sum to %v", row.Kernel, row.AR, sum)
		}
	}
}

func TestFig9InvariantIssuedSplitsExactly(t *testing.T) {
	s := tinySession()
	data, err := s.Fig9Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 7 {
		t.Fatalf("Section 4 kernel set = %d, want 7 (LU and Water-SP excluded)", len(data))
	}
	for _, row := range data {
		if row.TL.TransparentReply+row.TL.Upgraded != row.TL.TransparentIssued {
			t.Fatalf("%s: reply+upgraded != issued: %+v", row.Kernel, row.TL)
		}
	}
}

func TestFig10UsesBestConventionalBase(t *testing.T) {
	s := tinySession()
	data, err := s.Fig10Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data {
		if row.Prefetch <= 0 || row.TL <= 0 || row.TLSI <= 0 {
			t.Fatalf("%s: non-positive speedups %+v", row.Kernel, row)
		}
	}
}

func TestMemoization(t *testing.T) {
	s := tinySession()
	a, err := s.single("SOR", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.single("SOR", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical configuration was re-simulated instead of memoized")
	}
}

func TestExtAdaptiveData(t *testing.T) {
	s := tinySession()
	data, err := s.ExtAdaptiveData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 9 {
		t.Fatalf("rows = %d, want 9", len(data))
	}
	for _, row := range data {
		if len(row.Fixed) != 4 || row.Adaptive <= 0 {
			t.Fatalf("%s: incomplete row %+v", row.Kernel, row)
		}
		if len(row.Final) == 0 {
			t.Fatalf("%s: no final policies", row.Kernel)
		}
	}
}

// TestTable2PaperSizes pins the paper-size rows of Table 2 to the sizes
// the kernels run at that preset. Table 2 simulates nothing.
func TestTable2PaperSizes(t *testing.T) {
	var sb strings.Builder
	if err := NewSession(Config{Size: kernels.Paper, Out: &sb}).Table2(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{
		"FFT 64K complex 4K complex",
		"OCEAN 258x258 258x258",
		"WATER-NS 512 molecules 128 molecules",
		"WATER-SP 512 molecules 216 molecules",
		"SOR 1024x1024 258x258",
		"LU 512x512 256x256",
		"CG 1400 700",
		"MG 32x32x32 32x32x32",
		"SP 16x16x16 24x24x24",
	} {
		if !rows[want] {
			t.Errorf("Table 2 has no row %q:\n%s", want, sb.String())
		}
	}
}
