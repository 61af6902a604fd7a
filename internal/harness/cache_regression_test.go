package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
)

// TestWarmCacheRerunSimulatesNothing pins the run-cache determinism
// contract at figure granularity: a second session over a fully
// cacheable figure subset is served entirely from the persistent cache
// — zero simulations — and renders byte-identical output. Unlike the
// full-session golden test, this subset is small enough to run under
// -short, so the contract is checked on every test invocation.
func TestWarmCacheRerunSimulatesNothing(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, int, int) {
		var out strings.Builder
		s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2}, Out: &out, Workers: 2, Cache: cache})
		if err := s.RunFigures("fig1", "fig5"); err != nil {
			t.Fatal(err)
		}
		sim, hits := s.Stats()
		return out.String(), sim, hits
	}
	cold, sim1, hits1 := run()
	if sim1 == 0 || hits1 != 0 {
		t.Fatalf("cold run: simulated %d, cache hits %d", sim1, hits1)
	}
	warm, sim2, hits2 := run()
	if sim2 != 0 {
		t.Errorf("warm rerun re-simulated %d runs despite a complete cache", sim2)
	}
	if hits2 == 0 {
		t.Error("warm rerun took no cache hits")
	}
	if cold != warm {
		t.Error("warm rerun changed rendered output")
	}
}

// TestCorruptCacheEntryIsResimulated pins how a session meets a cache
// entry that went bad after the cache was opened: a truncated entry is a
// miss, so its run is simulated again, CacheCorrupt counts it, and the
// output does not change. The Load that met it quarantined it too, so
// experiments reads Cache.Quarantined right after Open, before any Load,
// and adds only that to CacheCorrupt.
func TestCorruptCacheEntryIsResimulated(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Quarantined(); n != 0 {
		t.Fatalf("Quarantined = %d after opening an empty cache, want 0", n)
	}
	run := func() (string, *Session) {
		var out strings.Builder
		s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2}, Out: &out, Workers: 2, Cache: cache})
		if err := s.RunFigures("fig1"); err != nil {
			t.Fatal(err)
		}
		return out.String(), s
	}
	cold, s1 := run()
	sim1, _ := s1.Stats()
	entries, err := filepath.Glob(filepath.Join(cache.Dir(), "v*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sim1 < 2 || len(entries) != sim1 {
		t.Fatalf("cold run: simulated %d, cached %d entries; want at least 2, all cached", sim1, len(entries))
	}
	fi, err := os.Stat(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(entries[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	warm, s2 := run()
	sim2, hits2 := s2.Stats()
	if sim2 != 1 || hits2 != sim1-1 {
		t.Errorf("after truncating one entry: simulated %d, cache hits %d; want 1 and %d", sim2, hits2, sim1-1)
	}
	if n := s2.CacheCorrupt(); n != 1 {
		t.Errorf("CacheCorrupt = %d, want 1", n)
	}
	if n := cache.Quarantined(); n != 1 {
		t.Errorf("Quarantined = %d after the run, want 1: the one Load-time quarantine", n)
	}
	if warm != cold {
		t.Error("re-simulating the corrupt entry changed rendered output")
	}
}

// TestCorruptEntryQuarantinedAtOpen pins the other half of what
// experiments reports: an entry truncated before the cache is opened is
// quarantined by Open, so the session meets a plain miss, simulates the
// run again and counts nothing; Cache.Quarantined read right after Open
// has it, and the run adds no quarantine to count twice.
func TestCorruptEntryQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, *Session, *runcache.Cache, int64) {
		cache, err := runcache.Open(dir, core.SimVersion)
		if err != nil {
			t.Fatal(err)
		}
		opened := cache.Quarantined()
		var out strings.Builder
		s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2}, Out: &out, Workers: 2, Cache: cache})
		if err := s.RunFigures("fig1"); err != nil {
			t.Fatal(err)
		}
		return out.String(), s, cache, opened
	}
	cold, s1, _, _ := run()
	sim1, _ := s1.Stats()
	entries, err := filepath.Glob(filepath.Join(dir, "v*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sim1 < 2 || len(entries) != sim1 {
		t.Fatalf("cold run: simulated %d, cached %d entries; want at least 2, all cached", sim1, len(entries))
	}
	fi, err := os.Stat(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(entries[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	warm, s2, cache, opened := run()
	sim2, hits2 := s2.Stats()
	if sim2 != 1 || hits2 != sim1-1 {
		t.Errorf("after truncating one entry before Open: simulated %d, cache hits %d; want 1 and %d", sim2, hits2, sim1-1)
	}
	if opened != 1 {
		t.Errorf("Quarantined = %d right after Open, want 1", opened)
	}
	if n := s2.CacheCorrupt(); n != 0 {
		t.Errorf("CacheCorrupt = %d, want 0: Open already quarantined the entry", n)
	}
	if n := cache.Quarantined(); n != opened {
		t.Errorf("Quarantined = %d after the run, want %d: the run met no corrupt entry", n, opened)
	}
	if warm != cold {
		t.Error("re-simulating the quarantined entry changed rendered output")
	}
}
