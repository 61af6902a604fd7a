package watersp

import (
	"testing"
	"testing/quick"

	"slipstream/internal/core"
)

// TestCellStructure: every molecule appears exactly once in the lists, in
// the cell matching its position.
func TestCellStructure(t *testing.T) {
	cfg := Config{N: 100, Cells: 4, Steps: 1}
	pos, _, cellStart, cellMol := buildCells(cfg)
	cd := cfg.Cells
	nc := cd * cd * cd
	if int(cellStart[nc]) != cfg.N || len(cellMol) != cfg.N {
		t.Fatalf("cell lists cover %d molecules, want %d", cellStart[nc], cfg.N)
	}
	seen := make(map[int64]bool)
	for ci := 0; ci < nc; ci++ {
		for mi := cellStart[ci]; mi < cellStart[ci+1]; mi++ {
			m := cellMol[mi]
			if seen[m] {
				t.Fatalf("molecule %d appears twice", m)
			}
			seen[m] = true
			cx := min(int(pos[3*m]), cd-1)
			cy := min(int(pos[3*m+1]), cd-1)
			cz := min(int(pos[3*m+2]), cd-1)
			if (cz*cd+cy)*cd+cx != ci {
				t.Fatalf("molecule %d binned into wrong cell", m)
			}
		}
	}
}

// Property: balanceCells yields contiguous, disjoint, exhaustive ranges.
func TestBalanceCellsProperty(t *testing.T) {
	f := func(seed uint16, ntRaw uint8) bool {
		nt := 1 + int(ntRaw%32)
		cfg := Config{N: 16 + int(seed%200), Cells: 2 + int(seed%3), Steps: 1}
		_, _, cellStart, _ := buildCells(cfg)
		lo, hi := balanceCells(cellStart, nt)
		nc := len(cellStart) - 1
		prev := 0
		for tsk := 0; tsk < nt; tsk++ {
			if lo[tsk] != prev || hi[tsk] < lo[tsk] {
				return false
			}
			prev = hi[tsk]
		}
		return prev == nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNeighbours: symmetric (j in N(i) iff i in N(j)), includes self, and
// respects grid bounds.
func TestNeighbours(t *testing.T) {
	const cd = 4
	nc := cd * cd * cd
	sets := make([]map[int]bool, nc)
	var nbs [27]int
	for ci := 0; ci < nc; ci++ {
		sets[ci] = make(map[int]bool)
		for _, nb := range neighbours(&nbs, ci, cd) {
			if nb < 0 || nb >= nc {
				t.Fatalf("neighbour %d out of range", nb)
			}
			sets[ci][nb] = true
		}
		if !sets[ci][ci] {
			t.Fatalf("cell %d not its own neighbour", ci)
		}
	}
	for i := 0; i < nc; i++ {
		for j := range sets[i] {
			if !sets[j][i] {
				t.Fatalf("asymmetric neighbourhood: %d has %d but not vice versa", i, j)
			}
		}
	}
}

func TestWaterSPAllModes(t *testing.T) {
	for _, opts := range []core.Options{
		{Mode: core.ModeSingle, CMPs: 3},
		{Mode: core.ModeDouble, CMPs: 3},
		{Mode: core.ModeSlipstream, CMPs: 3, ARSync: core.OneTokenGlobal, TransparentLoads: true, SelfInvalidate: true},
	} {
		k := New(Config{N: 27, Cells: 3, Steps: 2})
		res, err := core.Run(opts, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("%v: %v", opts.Mode, res.VerifyErr)
		}
	}
}
