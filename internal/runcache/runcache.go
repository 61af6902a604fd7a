// Package runcache persists completed simulation results so repeated
// invocations are near-instant. Entries are keyed by a content hash of
// the normalized RunSpec — which folds in the benchmark, size preset,
// execution mode, feature flags, and the full machine parameter set —
// together with the simulator semantics version, so a cache never serves
// results the current simulator would not reproduce.
//
// The package exposes one seam, the Store interface, and one backend,
// Cache: a local atomic directory (JSON files written via temp file +
// rename, safe for concurrent writers within and across processes;
// opening prunes entries left by other simulator versions and quarantines
// unreadable ones as .bad files). Tests substitute their own Stores.
//
// Entries are self-describing {version, spec, result} JSON, so a load can
// verify an entry against the key and spec it claims to answer before
// serving it. Entries reach the directory only through Store, called by
// the process that simulated them: verification proves which spec an
// entry answers, not that its result was simulated, so no entry is ever
// accepted from the network.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"slipstream/internal/core"
	"slipstream/internal/runspec"
)

// Store is the content-addressed result store seam: the serving layer,
// the harness, and the CLIs depend on this interface rather than on a
// concrete backend, so tests can count or block the calls a daemon makes.
// Implementations must be safe for concurrent use.
type Store interface {
	// Key returns the content hash naming sp's entry: a pure function of
	// the simulator version and the normalized spec, identical in every
	// process.
	Key(sp runspec.RunSpec) (string, error)

	// Load returns the stored result for sp, if present and valid. A
	// non-nil error reports a corrupt, unreadable, or unverifiable entry;
	// such entries are still misses (ok=false), so callers that do not
	// care about corruption can ignore the error, and callers that do
	// (the serving layer's runcache.corrupt counter) can count it.
	Load(sp runspec.RunSpec) (*core.Result, bool, error)

	// Store persists a completed, verified run.
	Store(sp runspec.RunSpec, res *core.Result) error

	// Len returns the number of entries currently visible.
	Len() int
}

// Cache is a directory of persisted run results for one simulator
// version: the local backend of the Store interface. Methods are safe
// for concurrent use.
type Cache struct {
	dir         string
	version     string
	quarantined atomic.Int64
}

var _ Store = (*Cache)(nil)

// DefaultDir returns the conventional cache location: the slipstream
// subdirectory of the user cache directory, or a temp-dir fallback when
// the platform reports none.
func DefaultDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "slipstream", "runs")
	}
	return filepath.Join(os.TempDir(), "slipstream-runs")
}

// Open creates (if needed) and opens the cache directory for the given
// simulator version (normally core.SimVersion), evicting entries that
// were written by any other version and quarantining unreadable
// current-version entries as .bad files (see Quarantined).
func Open(dir, version string) (*Cache, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	c := &Cache{dir: dir, version: version}
	if err := c.prune(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Quarantined returns how many corrupt or unreadable entries this cache
// has renamed to .bad files (at Open and on Load) instead of serving or
// silently deleting them. The files stay in the directory for inspection.
func (c *Cache) Quarantined() int64 { return c.quarantined.Load() }

// entry is the self-describing storage format. Version and Spec are
// stored alongside the result so entries are verifiable independent of
// their filename.
type entry struct {
	Version string          `json:"version"`
	Spec    runspec.RunSpec `json:"spec"`
	Result  *core.Result    `json:"result"`
}

// verify checks that e is servable as the entry named key for spec want
// under version: the version matches, the entry's spec is the one asked
// for, the key re-derives from the entry's own content, and the result is
// present and verified. Load applies it before serving an entry.
func (e *entry) verify(version, key string, want runspec.RunSpec) error {
	switch {
	case e.Version != version:
		return fmt.Errorf("entry version %q, want %q", e.Version, version)
	case e.Spec != want:
		return fmt.Errorf("entry answers spec %v, want %v", e.Spec, want)
	case e.Result == nil:
		return errors.New("entry has no result")
	case e.Result.VerifyErr != nil:
		return fmt.Errorf("entry result unverified: %v", e.Result.VerifyErr)
	}
	rekey, err := KeyFor(version, e.Spec)
	if err != nil {
		return err
	}
	if rekey != key {
		return fmt.Errorf("entry content hashes to %s, not %s", rekey, key)
	}
	return nil
}

// KeyFor returns the content hash naming sp's cache entry under the given
// simulator version: SHA-256 over the version and the canonical JSON of
// the normalized spec. The Cache and the gateway's consistent hashing
// use this one function, so placement and lookup agree everywhere.
func KeyFor(version string, sp runspec.RunSpec) (string, error) {
	b, err := json.Marshal(struct {
		Version string          `json:"version"`
		Spec    runspec.RunSpec `json:"spec"`
	}{version, sp.Normalize()})
	if err != nil {
		return "", fmt.Errorf("runcache: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// Key returns the content hash naming sp's cache entry.
func (c *Cache) Key(sp runspec.RunSpec) (string, error) {
	return KeyFor(c.version, sp)
}

// path returns the entry filename: the version (sanitized) is a prefix so
// stale entries are recognizable without reading them.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, "v"+sanitize(c.version)+"-"+key+".json")
}

// quarantine renames a bad entry to a .bad file so it is never served
// again but stays available for inspection.
func (c *Cache) quarantine(path string) {
	if os.Rename(path, path+".bad") == nil {
		c.quarantined.Add(1)
	}
}

// Load returns the stored result for sp, if present and valid. Corrupt or
// unverifiable entries are quarantined, reported as misses, and surfaced
// through the error return so callers can count them. A read failure
// other than not-exist is surfaced the same way but does NOT quarantine:
// it says nothing about the entry's content, and a transient I/O error
// must not evict a valid entry.
func (c *Cache) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	key, err := c.Key(sp)
	if err != nil {
		return nil, false, err
	}
	path := c.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("runcache: reading %s: %w", filepath.Base(path), err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		c.quarantine(path)
		return nil, false, fmt.Errorf("runcache: corrupt entry %s: %w", filepath.Base(path), err)
	}
	if err := e.verify(c.version, key, sp.Normalize()); err != nil {
		c.quarantine(path)
		return nil, false, fmt.Errorf("runcache: invalid entry %s: %w", filepath.Base(path), err)
	}
	return e.Result, true, nil
}

// Store persists a completed run atomically, as compact JSON. Unverified
// results are rejected: a cache must never replay wrong numerics into a
// figure. Entries that earlier versions wrote indented load alike.
func (c *Cache) Store(sp runspec.RunSpec, res *core.Result) error {
	if res == nil || res.VerifyErr != nil {
		return fmt.Errorf("runcache: refusing to store unverified result for %v", sp)
	}
	sp = sp.Normalize()
	key, err := c.Key(sp)
	if err != nil {
		return err
	}
	b, err := json.Marshal(entry{Version: c.version, Spec: sp, Result: res})
	if err != nil {
		return fmt.Errorf("runcache: encoding %v: %w", sp, err)
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: writing %v: %w", sp, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// Len returns the number of entries currently stored for this version.
func (c *Cache) Len() int {
	names, err := filepath.Glob(filepath.Join(c.dir, "v"+sanitize(c.version)+"-*.json"))
	if err != nil {
		return 0
	}
	return len(names)
}

// prune evicts entries written by other simulator versions (and orphaned
// temp files and stale quarantine files), recognized by the version
// prefix in the filename, and quarantines current-version entries whose
// contents are unreadable or not valid JSON — truncated writes from a
// crashed process must be counted and set aside, not silently ignored
// until a Load trips over them.
func (c *Cache) prune() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	keep := "v" + sanitize(c.version) + "-"
	for _, de := range entries {
		name := de.Name()
		path := filepath.Join(c.dir, name)
		switch {
		case strings.HasPrefix(name, "tmp-"):
			os.Remove(path)
		case strings.HasSuffix(name, ".bad"):
			if !strings.HasPrefix(name, keep) {
				os.Remove(path) // quarantine from another version: moot
			}
		case strings.HasPrefix(name, "v") && strings.HasSuffix(name, ".json"):
			if !strings.HasPrefix(name, keep) {
				os.Remove(path)
				continue
			}
			b, err := os.ReadFile(path)
			if err != nil || !json.Valid(b) {
				c.quarantine(path)
			}
		}
	}
	return nil
}

// sanitize keeps version strings filename- and prefix-safe.
func sanitize(v string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.':
			return r
		}
		return '_'
	}, v)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
