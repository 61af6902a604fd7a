package api

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
)

// servedAnswers returns the bodies a daemon answers one-spec batches
// with, for every kernel in single and slipstream mode at tiny size on 2
// CMPs.
var servedAnswers = sync.OnceValues(func() ([][]byte, error) {
	var bodies [][]byte
	for _, k := range kernels.AllNames() {
		for _, m := range []core.Mode{core.ModeSingle, core.ModeSlipstream} {
			res, err := runspec.RunSpec{Kernel: k, Size: kernels.Tiny, Mode: m, CMPs: 2}.Run()
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(RunResponse{Results: []*core.Result{res}, Cached: []bool{true}})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	return bodies, nil
})

// FuzzDecodeRunResponse pins DecodeRunResponse to json.Unmarshal into a
// zero RunResponse: for any bytes both fail with the same error text or
// both give deeply equal values.
func FuzzDecodeRunResponse(f *testing.F) {
	served, err := servedAnswers()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range served {
		f.Add(b)
	}
	for _, seed := range []string{
		`{"results":[{"kernel":"SOR","mode":null,"arsync":"L1","cmps":2}],"cached":[true]}`,
		`{"results":[{"kernel":"S\u004fR","mode":"\u0073lipstream","arsync":"G\u0030"}],"cached":[false]}`,
		`{"results":[{"kernel":"SOR","verify_err":""}],"cached":[false]}`,
		`{"results":[{"kernel":"SOR","mem":{"l1hits":3}}],"cached":[true]}`,
		`{"results":[{"kernel":"SOR","colour":"red"}],"cached":[true]}`,
		`{"results":[{"mem":{"L1Hits":1,"L2Hits":2},"mem":{"L1Misses":3}}],"cached":[true]}`,
		`{"results":[{"tasks":[{"Busy":1,"Lock":2}],"tasks":[{"Busy":3}],"req":{"Reads":[1,2,3]},"req":{"Reads":[4]}}],"cached":[true]}`,
		`{"results":[{"kernel":"SOR","cycles":5}],"cached":[true],"results":[{"kernel":"LU"}]}`,
		`{"results":[{"req":{"Reads":[1,2],"Exclusives":[3]}}],"cached":[true]}`,
		`{"results":[{"req":{"Reads":[1,2,3,4,5,6,7]}}],"cached":[true]}`,
		`{"results":[{"cycles":-0}],"cached":[true]}`,
		`{"results":[{"cycles":01}],"cached":[true]}`,
		`{"results":[{"cycles":1e3}],"cached":[true]}`,
		`{"results":[{"cycles":9223372036854775808}],"cached":[true]}`,
		`{"results":[{"cycles":-9223372036854775808,"cmps":-1}],"cached":[true]}`,
		`{"results":[null],"cached":[true]}`,
		`{"results":null,"cached":null}`,
		`null`,
		`{"results":[],"cached":[]}x`,
		` {"results":[{"kernel":"SOR","mode":"SINGLE","tasks":[],"final_policies":["g1"]}],"cached":[false]} ` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeRunResponse(b)
		var want RunResponse
		wantErr := json.Unmarshal(b, &want)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeRunResponse(%q) error %v, json.Unmarshal %v", b, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRunResponse(%q) = %s, json.Unmarshal %s", b, encoded(got), encoded(want))
		}
	})
}

// encoded shows a decoded response in a failure message.
func encoded(resp RunResponse) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// fill sets every exported field v holds, at any depth, to a non-zero
// value whose JSON encoding decodes back to it, so a field of a kind the
// reader does not take shows up. A json.Unmarshaler, which leaves the
// fast path by design, stays zero, and so does an interface, which has
// no JSON form to decode into.
func fill(t *testing.T, v reflect.Value) {
	if reflect.PointerTo(v.Type()).Implements(unmarshalerType) {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("s")
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fill(t, v.Index(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Interface:
	default:
		t.Fatalf("fill: no value for %s", v.Type())
	}
}

// wireValues returns an answer carrying a Result with every field set
// and a request carrying a normalized spec with every field set but
// Params.
func wireValues(t *testing.T) (RunResponse, RunRequest) {
	var res core.Result
	fill(t, reflect.ValueOf(&res).Elem())
	var spec runspec.RunSpec
	fill(t, reflect.ValueOf(&spec).Elem())
	if spec.Params != "" {
		t.Fatalf("fill set Params to %q", spec.Params)
	}
	return RunResponse{Results: []*core.Result{&res}, Cached: []bool{true}},
		RunRequest{Specs: []runspec.RunSpec{spec.Normalize()}}
}

// TestWireTypesTakeFastPath checks that what json.Marshal writes for
// every field of the wire types decodes in one pass, not through the
// encoding/json fallback, and back to the value encoded. Without it a
// field of a kind the reader does not take would send every answer down
// the slow path unnoticed.
func TestWireTypesTakeFastPath(t *testing.T) {
	resp, req := wireValues(t)
	for _, c := range []struct {
		name string
		p    *plan
		v    any
	}{
		{"answer", responsePlan, resp},
		{"request", requestPlan, req},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := reflect.New(reflect.TypeOf(c.v))
		if !decode(b, c.p, got.Elem()) {
			t.Errorf("%s %s left the fast path", c.name, b)
			continue
		}
		if !reflect.DeepEqual(got.Elem().Interface(), c.v) {
			t.Errorf("%s %s decoded as %+v, want %+v", c.name, b, got.Elem().Interface(), c.v)
		}
	}
}

// TestDecodeConcurrently runs 8 goroutines decoding answers and requests
// at once, on the fast path and through the fallback, so the race
// detector sees the plans shared.
func TestDecodeConcurrently(t *testing.T) {
	resp, req := wireValues(t)
	answer, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	request, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	escaped := []byte(`{"specs":[{"kernel":"S\u004fR","size":"tiny","mode":"single","cmps":1}]}`)
	wantEscaped, err := DecodeRunRequest(escaped)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, err := DecodeRunResponse(answer); err != nil || !reflect.DeepEqual(got, resp) {
					t.Errorf("answer decoded as %+v, %v", got, err)
					return
				}
				if got, err := DecodeRunRequest(request); err != nil || !reflect.DeepEqual(got, req) {
					t.Errorf("request decoded as %+v, %v", got, err)
					return
				}
				if got, err := DecodeRunRequest(escaped); err != nil || !reflect.DeepEqual(got, wantEscaped) {
					t.Errorf("escaped request decoded as %+v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
