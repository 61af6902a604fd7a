package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// TestClientRetriesBackpressure pins the client retry loop: 429
// rejections are retried with the server's Retry-After hint up to
// MaxAttempts, then the request succeeds end to end.
func TestClientRetriesBackpressure(t *testing.T) {
	s := service.New(service.Config{Workers: 2})
	inner := s.Handler()
	t.Cleanup(func() {
		s.StartDrain()
		s.Wait()
	})

	// The front handler rejects the first two submissions like a congested
	// daemon would, then forwards to the real one.
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathRun && attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorResponse{Error: "job queue full", Code: api.CodeQueueFull})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL)
	c.MaxAttempts = 3
	resp, _, err := c.RunBatch(context.Background(), []runspec.RunSpec{specTL(2)}, 0)
	if err != nil {
		t.Fatalf("RunBatch with retries: %v", err)
	}
	if resp.Results[0] == nil {
		t.Fatal("no result after retries")
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two rejections, one success)", got)
	}
}

// TestClientRetryBudgetExhausts pins the give-up path: when every attempt
// is rejected, the final APIError (with its code and Retry-After hint)
// reaches the caller, and non-temporary errors never retry at all.
func TestClientRetryBudgetExhausts(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "0")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "overloaded", Code: api.CodeQueueFull})
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL)
	c.MaxAttempts = 3
	_, _, err := c.RunBatch(context.Background(), []runspec.RunSpec{specTL(2)}, 0)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Code != api.CodeQueueFull {
		t.Errorf("final error = HTTP %d code %q, want 429 %q", apiErr.StatusCode, apiErr.Code, api.CodeQueueFull)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}

	// A validation failure is permanent: one attempt only.
	attempts.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "bad spec", Code: api.CodeBadRequest})
	}))
	t.Cleanup(ts2.Close)
	c2 := client.New(ts2.URL)
	c2.MaxAttempts = 3
	if _, _, err := c2.RunBatch(context.Background(), []runspec.RunSpec{specTL(2)}, 0); err == nil {
		t.Fatal("bad request retried into success?")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts on permanent error = %d, want 1", got)
	}
}

// TestClientRejectsMisalignedResponse pins the fan-in safety contract: a
// server answering with a full Results array but short Cached/Jobs arrays
// must fail the submit with an error, not panic whoever indexes the
// response positionally (the gateway does).
func TestClientRejectsMisalignedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.RunResponse{Results: []*core.Result{nil}}) // 1 result, 0 cached, 0 jobs
	}))
	t.Cleanup(ts.Close)

	_, _, err := client.New(ts.URL).RunBatch(context.Background(), []runspec.RunSpec{specTL(2)}, 0)
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v, want misaligned-response error", err)
	}
}

// TestClientRetryFloorWithoutHint pins the backoff floor: a temporary
// rejection carrying no Retry-After (504 deadline answers do not) must
// still wait between attempts instead of burning the budget instantly.
func TestClientRetryFloorWithoutHint(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "deadline exceeded", Code: api.CodeDeadline})
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL)
	c.MaxAttempts = 2
	start := time.Now()
	_, _, err := c.RunBatch(context.Background(), []runspec.RunSpec{specTL(2)}, 0)
	if err == nil {
		t.Fatal("rejected submit succeeded?")
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("retried after %v, want >= 100ms floor between attempts", elapsed)
	}
}
