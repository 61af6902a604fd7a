package kernels

import (
	"encoding/json"
	"testing"
)

// FuzzParseParams drives ParseParams, the parser of the Params strings
// that reach a spec from the CLI and the wire, with arbitrary input. No
// input may panic. Whatever it accepts must be canonical: parsing the
// result again, rebuilding it from its Map, and decoding either wire
// spelling (the object MarshalJSON writes, or the input as a JSON string)
// must all give back the same Params.
//
// The seeds run under plain go test: the empty string, the CI cluster
// job's scrambled spelling, negative zero, a hex float, an overflowing
// value, NaN, a duplicate key, an upper-case key and a string of empty
// entries.
func FuzzParseParams(f *testing.F) {
	for _, s := range []string{"", "mig=0.250, seed=7.0", "a=-0", "a=0x1p-2", "a=1e400", "a=NaN", "a=1,a=2", "A=1", ",,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseParams(s)
		if err != nil {
			return
		}
		if again, err := ParseParams(string(p)); err != nil || again != p {
			t.Fatalf("ParseParams(%q) = %q, but parsing that gives %q, %v", s, p, again, err)
		}
		m, err := p.Map()
		if err != nil {
			t.Fatalf("ParseParams(%q) = %q, whose Map fails: %v", s, p, err)
		}
		if made, err := MakeParams(m); err != nil || made != p {
			t.Fatalf("ParseParams(%q) = %q, but MakeParams of its Map gives %q, %v", s, p, made, err)
		}
		obj, err := p.MarshalJSON()
		if err != nil {
			t.Fatalf("ParseParams(%q) = %q, which does not marshal: %v", s, p, err)
		}
		str, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, wire := range [][]byte{obj, str} {
			var got Params
			if err := got.UnmarshalJSON(wire); err != nil || got != p {
				t.Fatalf("ParseParams(%q) = %q, but %s decodes to %q, %v", s, p, wire, got, err)
			}
		}
	})
}
