package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
)

// plainDecodeRunRequest is the reference decodeRunRequest must match on
// every body within maxRequestBytes: a json.Decoder over the body that
// disallows unknown fields, then the trailing-token and empty-batch
// checks, with the same error texts.
func plainDecodeRunRequest(body []byte) (api.RunRequest, error) {
	var req api.RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("decoding request: data after the request object")
	}
	if len(req.Specs) == 0 {
		return req, fmt.Errorf("service: empty batch")
	}
	return req, nil
}

// FuzzDecodeRunRequest feeds arbitrary bodies to decodeRunRequest, the
// one POST /v1/run decoder the daemon and the gateway share. No body may
// panic it, and it must return the specs and the error text of
// plainDecodeRunRequest. A body it accepts has at least one spec whose
// encoding decodes back to the same normalized spec, so the gateway
// forwards to a replica exactly the batch the client sent.
func FuzzDecodeRunRequest(f *testing.F) {
	hot, err := json.Marshal(api.RunRequest{Specs: []runspec.RunSpec{runspec.RunSpec{
		Kernel: "OCEAN", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 4,
		TransparentLoads: true, SelfInvalidate: true,
	}.Normalize()}})
	if err != nil {
		f.Fatal(err)
	}
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
		// A repeated key, a key that matches only case-folded, a float and
		// a name the mode codec refuses leave the one-pass reader.
		`{"specs":[{"kernel":"SOR","size":"tiny","machine":{"Nodes":2,"L1Hit":1},"machine":{"Nodes":4}}]}`,
		`{"specs":[{"Kernel":"SOR","size":"tiny","mode":"single","CMPS":2}]}`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"single","cmps":2.0}]}`,
		`{"specs":[{"kernel":"SOR","size":"tiny","mode":"triple","cmps":2}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(hot)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, api.PathRun, bytes.NewReader(body))
		req, err := decodeRunRequest(httptest.NewRecorder(), r)
		if len(body) <= maxRequestBytes {
			want, wantErr := plainDecodeRunRequest(body)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("body %q: error %v, want %v", body, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(req.Specs, want.Specs) {
				t.Fatalf("body %q: specs %+v, want %+v", body, req.Specs, want.Specs)
			}
		}
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
