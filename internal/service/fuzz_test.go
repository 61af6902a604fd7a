package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
)

// FuzzDecodeRunRequest feeds arbitrary bodies to decodeRunRequest, the
// one POST /v1/run decoder the daemon and the gateway share. No body may
// panic it, and a body it accepts has at least one spec whose encoding
// decodes back to the same normalized spec, so the gateway forwards to a
// replica exactly the batch the client sent.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, seed := range []string{
		// Names the removed timeout_ms field, so it must be refused, as
		// the priority body below is.
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","arsync":"L1","cmps":2,"transparent_loads":true},` +
			`{"kernel":"LU","size":"small","mode":"single","cmps":4}],"timeout_ms":60000}`,
		`{"specs":[{"kernel":"SYNTH","params":{"seed":7,"mig":0.25},"size":"tiny","mode":"single","cmps":2}]}`,
		`{"specs":[{"kernel":"SYNTH","params":"mig=0.250, seed=7.0","size":"tiny","mode":"single","cmps":2}]}`,
		`{"specs":[]}`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","cmps":2}],"priority":"batch"}`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","cmps":2,"colour":"red"}]}`,
		`null`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"single","cmps":1}]}{"specs":[]}`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"single","cmps":1}]}` + "\n",
		// A null mode is an absent one, and names decode as JSON strings.
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":null,"arsync":null,"cmps":1}]}`,
		`{"specs":[{"kernel":"SOR","size":"t\u0069ny","mode":"\u0073lipstream","arsync":"\u004c1","cmps":2}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, api.PathRun, bytes.NewReader(body))
		req, err := decodeRunRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		if len(req.Specs) == 0 {
			t.Fatalf("accepted a body with no spec: %q", body)
		}
		enc, err := json.Marshal(req.Specs)
		if err != nil {
			t.Fatalf("accepted specs do not encode: %v (body %q)", err, body)
		}
		var again []runspec.RunSpec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("encoded specs %s do not decode: %v", enc, err)
		}
		if len(again) != len(req.Specs) {
			t.Fatalf("%d specs decoded back as %d", len(req.Specs), len(again))
		}
		for i := range again {
			if got, want := again[i].Normalize(), req.Specs[i].Normalize(); got != want {
				t.Fatalf("spec %d round trips as %+v, want %+v", i, got, want)
			}
		}
	})
}
