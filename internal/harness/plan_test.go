package harness

import (
	"strings"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
)

// TestPlansCoverRenders checks that a figure's recorded plan is all its
// render needs: once Execute has run the plan, rendering simulates
// nothing, loads nothing from the cache, and writes no progress line. It
// covers every registry figure and the CSV data, one at a time, at one
// and at two machine sizes.
func TestPlansCoverRenders(t *testing.T) {
	type render struct {
		name string
		fn   func(*Session) error
	}
	var renders []render
	for _, f := range Figures() {
		renders = append(renders, render{f.Tag, f.Render})
	}
	renders = append(renders, render{"csv", csvData})

	for _, cmps := range [][]int{{2}, {2, 4}} {
		// The shared cache simulates each run once across the renders; a
		// render that asks for a run its plan lacks shows as a cache hit
		// or a simulation.
		cache, err := runcache.Open(t.TempDir(), core.SimVersion)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range renders {
			var progress strings.Builder
			s := NewSession(Config{Size: kernels.Tiny, CMPCounts: cmps, Progress: &progress, Workers: 2, Cache: cache})
			if err := s.Execute(s.plan(r.fn)); err != nil {
				t.Fatal(err)
			}
			simulated, hits := s.Stats()
			planned := progress.String()
			if err := r.fn(s); err != nil {
				t.Fatalf("%s at CMPs %v: %v", r.name, cmps, err)
			}
			if sim, h := s.Stats(); sim != simulated || h != hits {
				t.Errorf("%s at CMPs %v: render simulated %d and loaded %d runs its plan missed",
					r.name, cmps, sim-simulated, h-hits)
			}
			if got := progress.String(); got != planned {
				t.Errorf("%s at CMPs %v: render wrote progress lines:\n%s",
					r.name, cmps, strings.TrimPrefix(got, planned))
			}
		}
	}
}

// TestPlanLeavesSessionUntouched checks that planning renders against a
// copy: planning every figure and the CSV data simulates and loads
// nothing, writes no output or progress, and registers no observer on
// the session it plans for.
func TestPlanLeavesSessionUntouched(t *testing.T) {
	var out, progress strings.Builder
	s := NewSession(Config{
		Size: kernels.Tiny, CMPCounts: []int{2, 4},
		Out: &out, Progress: &progress, Observe: true,
	})
	specs := s.plan(func(r *Session) error {
		for _, f := range Figures() {
			if err := f.Render(r); err != nil {
				return err
			}
		}
		return csvData(r)
	})
	if len(specs) == 0 {
		t.Fatal("planning every figure recorded no runs")
	}
	if sim, hits := s.Stats(); sim != 0 || hits != 0 {
		t.Errorf("planning simulated %d runs and loaded %d", sim, hits)
	}
	if out.Len() != 0 || progress.Len() != 0 {
		t.Errorf("planning wrote %d output and %d progress bytes", out.Len(), progress.Len())
	}
	if n := len(s.observedSpecs()); n != 0 {
		t.Errorf("planning registered observers for %d runs", n)
	}
}
