package cg_test

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"slipstream/internal/kernels"
	"slipstream/internal/kernels/cg"
	"slipstream/internal/kernels/kutil"
)

// buildMatrixMap is the builder cg.BuildMatrix replaced, kept as its
// oracle: a map of column to value per row, so a later write to an entry
// overwrites the earlier one, then each row's columns in sorted order.
func buildMatrixMap(cfg cg.Config) (rowptr []int64, colidx []int64, vals []float64) {
	n := cfg.N
	rnd := kutil.NewRand(99)
	entries := make([]map[int]float64, n)
	for i := range entries {
		entries[i] = map[int]float64{i: float64(cfg.PerRow) + 4}
	}
	for i := 0; i < n; i++ {
		for e := 0; e < cfg.PerRow/2; e++ {
			j := rnd.Intn(n)
			if j == i {
				continue
			}
			v := rnd.Float64() - 0.5
			entries[i][j] = v
			entries[j][i] = v
		}
	}
	rowptr = make([]int64, n+1)
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(entries[i]))
		for j := range entries[i] {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		for _, j := range cols {
			colidx = append(colidx, int64(j))
			vals = append(vals, entries[i][j])
		}
		rowptr[i+1] = int64(len(colidx))
	}
	return rowptr, colidx, vals
}

// presetConfig returns the configuration the registry builds CG with at
// the given size.
func presetConfig(t *testing.T, size kernels.Size) cg.Config {
	t.Helper()
	k, err := kernels.New("CG", size)
	if err != nil {
		t.Fatal(err)
	}
	return k.(*cg.Kernel).Config()
}

// TestBuildMatrixMatchesMapOracle compares the CSR builder with the map
// builder bit for bit, at the three presets and at configurations where
// many draws set the same entry (few columns, many draws per row).
func TestBuildMatrixMatchesMapOracle(t *testing.T) {
	cfgs := []cg.Config{
		presetConfig(t, kernels.Tiny),
		presetConfig(t, kernels.Small),
		presetConfig(t, kernels.Paper),
	}
	for _, c := range []cg.Config{{N: 16, PerRow: 2}, {N: 16, PerRow: 40}, {N: 33, PerRow: 9}, {N: 500, PerRow: 64}} {
		cfgs = append(cfgs, cg.New(c).Config())
	}
	for _, cfg := range cfgs {
		rowptr, colidx, vals := cg.BuildMatrix(cfg)
		wantRowptr, wantColidx, wantVals := buildMatrixMap(cfg)
		if !equalInts(rowptr, wantRowptr) || !equalInts(colidx, wantColidx) {
			t.Errorf("%+v: rowptr or colidx differ from the map builder's", cfg)
			continue
		}
		if len(vals) != len(wantVals) {
			t.Errorf("%+v: %d values, the map builder %d", cfg, len(vals), len(wantVals))
			continue
		}
		for e := range vals {
			if math.Float64bits(vals[e]) != math.Float64bits(wantVals[e]) {
				t.Errorf("%+v: vals[%d] = %v, the map builder %v", cfg, e, vals[e], wantVals[e])
				break
			}
		}
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildMatrixAllocation pins what one paper-size build allocates: at
// most twice the CSR matrix's own bytes. The map builder allocated about
// seven times them.
func TestBuildMatrixAllocation(t *testing.T) {
	cfg := presetConfig(t, kernels.Paper)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rowptr, colidx, vals := cg.BuildMatrix(cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	csr := uint64(8 * (len(rowptr) + len(colidx) + len(vals)))
	t.Logf("paper-size build allocated %d B for a %d B CSR matrix", got, csr)
	if got > 2*csr {
		t.Errorf("paper-size build allocated %d B, over twice its %d B CSR matrix", got, csr)
	}
}
