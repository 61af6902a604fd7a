package kernels

import (
	"encoding/json"
	"math"
	"testing"
)

// TestSizeJSON pins the preset's JSON form: its name, read as a JSON
// string (escapes decode, null leaves the value alone), and nothing else.
func TestSizeJSON(t *testing.T) {
	b, err := json.Marshal([]Size{Tiny, Small, Paper})
	if err != nil || string(b) != `["tiny","small","paper"]` {
		t.Errorf("presets encode as %s, %v", b, err)
	}
	if _, err := json.Marshal(Size(3)); err == nil {
		t.Error("out-of-range size marshaled")
	}
	for _, bad := range []string{`0`, `{}`, `"huge"`, `"Size(1)"`} {
		if err := json.Unmarshal([]byte(bad), new(Size)); err == nil {
			t.Errorf("size %s unmarshaled", bad)
		}
	}
	var s Size
	if err := json.Unmarshal([]byte(`"t\u0069ny"`), &s); err != nil || s != Tiny {
		t.Errorf(`"t\u0069ny" = %v, %v; want tiny`, s, err)
	}
	s = Paper
	if err := json.Unmarshal([]byte(`null`), &s); err != nil || s != Paper {
		t.Errorf("null = %v, %v; want the value left as paper", s, err)
	}
}

// Equal parameter sets must collapse to one representation regardless of
// how they were spelled — Params equality is RunSpec equality is cache-key
// identity, so canonicalization is load-bearing.
func TestParamsCanonicalization(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Params
	}{
		{"", ""},
		{"   ", ""},
		{"seed=7", "seed=7"},
		{"seed=7.0", "seed=7"},
		{"seed=7, mig=0.25", "mig=0.25,seed=7"},
		{"mig=0.250,seed=07", "mig=0.25,seed=7"},
		{"mig=2.5e-1", "mig=0.25"},
		{",seed=1,,", "seed=1"},
	} {
		got, err := ParseParams(tc.in)
		if err != nil {
			t.Errorf("ParseParams(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseParams(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"seed", "seed=", "seed=x", "seed=1,seed=2", "SEED=1", "1seed=1", "=1"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted malformed input", bad)
		}
	}
}

func TestMakeParamsRejectsBadValues(t *testing.T) {
	if _, err := MakeParams(map[string]float64{"seed": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := MakeParams(map[string]float64{"seed": math.Inf(1)}); err == nil {
		t.Error("+Inf accepted")
	}
	if _, err := MakeParams(map[string]float64{"Bad-Key": 1}); err == nil {
		t.Error("bad key accepted")
	}
	p, err := MakeParams(nil)
	if err != nil || p != "" {
		t.Errorf("MakeParams(nil) = %q, %v; want zero Params", p, err)
	}
}

// JSON must round-trip through both wire forms — the canonical object and
// the CLI string — and land on the identical Params value.
func TestParamsJSONRoundTrip(t *testing.T) {
	p, err := ParseParams("seed=7,mig=0.25,ops=4096")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"mig":0.25,"ops":4096,"seed":7}` {
		t.Errorf("wire form %s not canonical", b)
	}
	var back Params
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Errorf("object round-trip %q != %q", back, p)
	}
	// The CLI string form, in scrambled order, decodes to the same value.
	var fromString Params
	if err := json.Unmarshal([]byte(`"ops=4096, seed=7.0, mig=0.250"`), &fromString); err != nil {
		t.Fatal(err)
	}
	if fromString != p {
		t.Errorf("string round-trip %q != %q", fromString, p)
	}
	var bad Params
	if err := json.Unmarshal([]byte(`{"mig":"high"}`), &bad); err == nil {
		t.Error("non-numeric parameter object accepted")
	}
}

func TestParamsMap(t *testing.T) {
	p, err := MakeParams(map[string]float64{"seed": 7, "mig": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Map()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["seed"] != 7 || m["mig"] != 0.25 {
		t.Errorf("Map() = %v", m)
	}
	zero, err := Params("").Map()
	if err != nil || zero != nil {
		t.Errorf("zero Params map = %v, %v", zero, err)
	}
	if _, err := Params("garbage").Map(); err == nil {
		t.Error("corrupt Params decoded")
	}
}
