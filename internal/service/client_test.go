package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
