package runcache

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
)

func tinySpec() runspec.RunSpec {
	return runspec.RunSpec{
		Kernel: "SOR", Size: kernels.Tiny,
		Mode: core.ModeSlipstream, ARSync: core.ZeroTokenLocal, CMPs: 2,
	}
}

func TestRoundTripDeepEqual(t *testing.T) {
	c, err := Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load(sp); ok || err != nil {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Store(sp, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load(sp)
	if !ok || err != nil {
		t.Fatal("stored entry not found")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed result:\n got %+v\nwant %+v", got, res)
	}
	// A normalized-equal spec (explicit default machine) hits the same entry.
	if _, ok, _ := c.Load(sp.Normalize()); !ok {
		t.Error("normalized spec missed the cache")
	}
}

func TestDistinctSpecsDistinctEntries(t *testing.T) {
	c, err := Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	a := tinySpec()
	b := tinySpec()
	b.TransparentLoads = true
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(a, ra); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Load(b); ok {
		t.Error("spec with different feature flags hit the wrong entry")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestStaleVersionEvictedOnOpen(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, "0-test")
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Store(sp, res); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 1 {
		t.Fatalf("seed entry not written")
	}

	// A new simulator version prunes the old entry and misses.
	cur, err := Open(dir, "1-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cur.Load(sp); ok {
		t.Error("stale-version entry served")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("stale entries not evicted: %v", files)
	}
}

func TestCorruptEntryEvictedOnLoad(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	key, err := c.Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := c.path(key)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, ok, err := c.Load(sp)
	if ok || res != nil {
		t.Fatal("corrupt entry served")
	}
	if err == nil {
		t.Fatal("corrupt entry loaded without surfacing an error")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry still live after quarantine")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("corrupt entry not quarantined to .bad: %v", err)
	}
	if got := c.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	// A quarantined key misses cleanly on the next probe (no error: the
	// slot is simply empty again) and can be refilled.
	if _, ok, err := c.Load(sp); ok || err != nil {
		t.Fatalf("post-quarantine probe: ok=%t err=%v, want clean miss", ok, err)
	}
}

// TestLoadIOErrorDoesNotQuarantine pins the quarantine trigger: only
// content proven bad (undecodable or unverifiable JSON) may be renamed to
// .bad. A read failure says nothing about the content, so the entry must
// stay in place and the error surface to the caller as a miss.
func TestLoadIOErrorDoesNotQuarantine(t *testing.T) {
	c, err := Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	key, err := c.Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	// A directory at the entry path makes os.ReadFile fail with a pure
	// I/O error (EISDIR) while the path still exists — the shape of any
	// transient read failure over a valid entry.
	path := c.path(key)
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	res, ok, err := c.Load(sp)
	if ok || res != nil {
		t.Fatal("unreadable entry served")
	}
	if err == nil {
		t.Fatal("read failure loaded without surfacing an error")
	}
	if got := c.Quarantined(); got != 0 {
		t.Errorf("Quarantined() = %d after I/O error, want 0", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("entry renamed away on I/O error: %v", err)
	}
	if _, err := os.Stat(path + ".bad"); !errors.Is(err, os.ErrNotExist) {
		t.Error(".bad file created for a pure I/O error")
	}
}

// TestOpenQuarantinesTruncatedEntry pins the prune() bugfix: an
// unreadable or truncated current-version entry found at Open must be
// quarantined (renamed to .bad and counted), not served and not left in
// place to fail every future Load.
func TestOpenQuarantinesTruncatedEntry(t *testing.T) {
	dir := t.TempDir()
	seed, err := Open(dir, core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Store(sp, res); err != nil {
		t.Fatal(err)
	}
	key, err := seed.Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := seed.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-entry: the file exists, is current-version, and is not
	// valid JSON.
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d after Open over truncated entry, want 1", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("truncated entry still live after Open")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("truncated entry not quarantined to .bad: %v", err)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("Len() = %d, want 0 (quarantined entries are not entries)", n)
	}
	if _, ok, err := c.Load(sp); ok || err != nil {
		t.Fatalf("Load over quarantined key: ok=%t err=%v, want clean miss", ok, err)
	}
	// The cache heals: a fresh Store overwrites the slot and round-trips.
	if err := c.Store(sp, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load(sp); !ok || err != nil {
		t.Fatalf("refill after quarantine: ok=%t err=%v, want hit", ok, err)
	}
	// A later Open keeps the current-version quarantine file (it exists
	// for inspection) but collects quarantine left by other versions.
	if _, err := Open(dir, core.SimVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("current-version .bad file not kept for inspection: %v", err)
	}
	stale := filepath.Join(dir, "v0stale-00c0ffee00c0ffee00c0ffee00c0ffee.json.bad")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.SimVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("other-version .bad file survived Open; stale quarantine should be collected")
	}
}

func TestStoreRejectsUnverified(t *testing.T) {
	c, err := Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Kernel: "SOR", VerifyErr: &core.VerifyError{Msg: "wrong numerics"}}
	if err := c.Store(tinySpec(), res); err == nil {
		t.Fatal("unverified result stored")
	}
}

// TestOpenPrunesPreviousSimVersion pins the version bump that accompanied
// the invariant-auditor fixes: entries cached by the previous simulator
// version ("1") must never be served again, because the Once accounting
// and IsL1Hit critical-section fixes changed simulated timing.
func TestOpenPrunesPreviousSimVersion(t *testing.T) {
	if core.SimVersion == "1" {
		t.Fatal("SimVersion was not bumped past the pre-audit semantics")
	}
	dir := t.TempDir()
	stale := filepath.Join(dir, "v1-00c0ffee00c0ffee.json")
	if err := os.WriteFile(stale, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.SimVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("v1 cache entry survived Open under SimVersion %q (stat err: %v)",
			core.SimVersion, err)
	}
}
