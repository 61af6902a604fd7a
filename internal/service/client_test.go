package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// TestClientRejectsMisalignedResponse pins the fan-in safety contract: a
// server answering with a full Results array but a short Cached array
// must fail the submit with an error, not panic whoever indexes the
// response positionally (the gateway does).
func TestClientRejectsMisalignedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.RunResponse{Results: []*core.Result{nil}}) // 1 result, 0 cached
	}))
	t.Cleanup(ts.Close)

	_, _, err := client.New(ts.URL).RunBatch(context.Background(), []runspec.RunSpec{specTL(2)})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v, want misaligned-response error", err)
	}
}

// TestClientDecodesWholeBody pins that a 200 answer is decoded whole:
// anything but white space after its object is a decode error, not a
// silent success.
func TestClientDecodesWholeBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"results":[{"kernel":"SOR"}],"cached":[false]}garbage`)
	}))
	t.Cleanup(ts.Close)

	_, _, err := client.New(ts.URL).RunBatch(context.Background(), []runspec.RunSpec{specTL(2)})
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("err = %v, want a decode error", err)
	}
}

// TestClientBoundsPresize sends a 200 answer whose Content-Length claims
// 1 GB for a body of a few bytes. The client must fail on the short body
// without allocating the claimed length up front.
func TestClientBoundsPresize(t *testing.T) {
	const claimed = 1 << 30
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(claimed))
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"results":[],"cached":[]}`)
	}))
	t.Cleanup(ts.Close)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := client.New(ts.URL).RunBatch(context.Background(), []runspec.RunSpec{specTL(2)})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/8 {
		t.Errorf("submit allocated %d bytes for a %d-byte claim", grew, claimed)
	}
}
