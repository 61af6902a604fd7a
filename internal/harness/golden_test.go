package harness

import (
	"strings"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
)

// renderAll runs every figure at tiny scale with the given worker count
// and returns the rendered output and the progress stream.
func renderAll(t *testing.T, workers int, cache runcache.Store) (out, progress string) {
	t.Helper()
	var sb, pb strings.Builder
	s := NewSession(Config{
		Size: kernels.Tiny, CMPCounts: []int{2, 4},
		Out: &sb, Progress: &pb, Workers: workers, Cache: cache,
	})
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	return sb.String(), pb.String()
}

// TestOutputIdenticalAcrossWorkerCounts is the determinism contract of the
// plan/execute split: each simulation is single-threaded, plans fix which
// runs happen, and progress flushes in plan order, so the full byte stream
// must not depend on the worker count.
func TestOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure twice")
	}
	out1, prog1 := renderAll(t, 1, nil)
	out8, prog8 := renderAll(t, 8, nil)
	if out1 != out8 {
		t.Errorf("figure output differs between -j 1 and -j 8:\nlen %d vs %d", len(out1), len(out8))
	}
	if prog1 != prog8 {
		t.Errorf("progress stream differs between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s", prog1, prog8)
	}
}

// TestCachedSessionSimulatesOnlyUncacheableRuns checks the second-session
// contract: with a warm persistent cache, everything except the leads
// study (which must observe its runs) is served without simulation, and
// the rendered output is byte-identical.
func TestCachedSessionSimulatesOnlyUncacheableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure twice")
	}
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}

	var cold strings.Builder
	s1 := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}, Out: &cold, Workers: 4, Cache: cache})
	if err := s1.All(); err != nil {
		t.Fatal(err)
	}
	sim1, hits1 := s1.Stats()
	if sim1 == 0 || hits1 != 0 {
		t.Fatalf("cold session: simulated %d, cache hits %d", sim1, hits1)
	}

	var warm strings.Builder
	s2 := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}, Out: &warm, Workers: 4, Cache: cache})
	if err := s2.All(); err != nil {
		t.Fatal(err)
	}
	sim2, hits2 := s2.Stats()
	// ExtLeads simulates its runs with an obs.Leads observer attached and
	// never memoizes or caches them, so it contributes to neither counter.
	if sim2 != 0 {
		t.Errorf("warm session re-simulated %d cached runs", sim2)
	}
	if hits2 == 0 {
		t.Error("warm session took no cache hits")
	}
	if cold.String() != warm.String() {
		t.Error("cached results changed figure output")
	}
}
