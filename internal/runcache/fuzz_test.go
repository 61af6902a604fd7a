package runcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"slipstream/internal/core"
)

// FuzzCacheLoad drives the cache's one decoder, Load, with arbitrary bytes
// in a tiny spec's entry file. Load must never panic. A hit must be an
// entry of the current version for exactly the spec asked, and the result
// served must be the one the bytes encode. Anything else is a miss that
// surfaces an error and quarantines the file to .bad.
//
// The seeds run under plain go test: the stored entry, the same entry
// swapped onto another spec (CMPs doubled), a version mismatch, a null
// result, a result marked unverified by an empty "verify_err", the stored
// entry with its spec's mode spelled with a JSON escape, an empty object,
// a truncated entry, and the stored entry indented with tabs, as Store
// wrote entries before it wrote them compact. The stored, escaped and
// indented entries must load, and the unverified one must not.
func FuzzCacheLoad(f *testing.F) {
	c, err := Open(f.TempDir(), core.SimVersion)
	if err != nil {
		f.Fatal(err)
	}
	sp := tinySpec()
	res, err := sp.Run()
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Store(sp, res); err != nil {
		f.Fatal(err)
	}
	key, err := c.Key(sp)
	if err != nil {
		f.Fatal(err)
	}
	path := c.path(key)
	stored, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	variant := func(edit func(*entry)) []byte {
		var e entry
		if err := json.Unmarshal(stored, &e); err != nil {
			f.Fatal(err)
		}
		edit(&e)
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	unverified := variant(func(e *entry) { e.Result.VerifyErr = &core.VerifyError{} })
	escaped := bytes.Replace(stored, []byte(`"mode":"slipstream"`), []byte(`"mode":"\u0073lipstream"`), 1)
	if bytes.Equal(escaped, stored) {
		f.Fatalf("stored entry has no slipstream mode to escape:\n%s", stored)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, stored, "", "\t"); err != nil {
		f.Fatal(err)
	}
	loads := map[string]bool{string(stored): true, string(escaped): true, string(unverified): false, indented.String(): true}
	f.Add(stored)
	f.Add(variant(func(e *entry) { e.Spec.CMPs *= 2 }))
	f.Add(variant(func(e *entry) { e.Version = "0-bogus" }))
	f.Add(variant(func(e *entry) { e.Result = nil }))
	f.Add(unverified)
	f.Add(escaped)
	f.Add([]byte("{}"))
	f.Add(stored[:len(stored)/2])
	f.Add(indented.Bytes())

	f.Fuzz(func(t *testing.T, b []byte) {
		os.Remove(path + ".bad")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := c.Load(sp)
		if want, fixed := loads[string(b)]; fixed && ok != want {
			t.Fatalf("seed loaded %t, want %t (error %v)", ok, want, err)
		}
		if ok {
			if err != nil {
				t.Fatalf("hit with error %v", err)
			}
			var e entry
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatalf("hit on bytes that do not decode: %v", err)
			}
			if e.Version != core.SimVersion || e.Spec != sp.Normalize() || e.Result == nil || e.Result.VerifyErr != nil {
				t.Fatalf("hit on entry version %q spec %v result %v", e.Version, e.Spec, e.Result)
			}
			if !reflect.DeepEqual(got, e.Result) {
				t.Fatalf("served %+v, entry holds %+v", got, e.Result)
			}
			return
		}
		if err == nil || got != nil {
			t.Fatalf("miss returned result %v, error %v; want no result and an error", got, err)
		}
		if _, err := os.Stat(path + ".bad"); err != nil {
			t.Fatalf("rejected entry not quarantined: %v", err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("rejected entry still live: %v", err)
		}
	})
}
