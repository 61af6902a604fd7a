package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"slipstream/internal/core"
	"slipstream/internal/obs"
	"slipstream/internal/service/api"
)

// maxRequestBytes bounds request bodies; a full batch of specs is a few
// hundred bytes each.
const maxRequestBytes = 1 << 20

// Handler returns the daemon's HTTP API (wire types: internal/service/api):
//
//	POST /v1/run      submit a RunSpec batch, wait for results
//	GET  /healthz     liveness, drain state, job counts
//	GET  /metrics     deterministic text metrics (service counters)
//
// It serves no other path: a request to write a cache entry or to list
// past jobs gets 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathRun, s.handleRun)
	mux.HandleFunc("GET "+api.PathHealthz, s.handleHealth)
	mux.HandleFunc("GET "+api.PathMetrics, s.handleMetrics)
	return mux
}

// decodeRunRequest reads a POST /v1/run body for the daemon and the
// gateway alike: at most maxRequestBytes, holding one JSON object with no
// unknown field, nothing after it but white space, and at least one spec
// (api.DecodeRunRequest). An error is the request's 400 answer.
func decodeRunRequest(w http.ResponseWriter, r *http.Request) (api.RunRequest, error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return api.RunRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	return api.DecodeRunRequest(b)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRunRequest(w, r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		return
	}
	answers, err := s.submit(req.Specs)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			writeAPIError(w, http.StatusTooManyRequests, api.CodeQueueFull, err, 1)
		case errors.Is(err, ErrDraining):
			writeAPIError(w, http.StatusServiceUnavailable, api.CodeDraining, err, 0)
		default:
			writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		}
		return
	}

	results := make([]json.RawMessage, len(answers))
	cached := make([]bool, len(answers))
	for i, a := range answers {
		if f := a.f; f != nil {
			select {
			case <-f.done:
			case <-r.Context().Done():
				// The client went away; accepted flights keep running for
				// any other waiters and for the store.
				return
			}
			if f.err != nil {
				status, code := flightErrStatus(f.err)
				writeAPIError(w, status, code, f.err, 0)
				return
			}
			a.res = f.res
		}
		results[i], cached[i] = a.res, a.hit
	}
	writeResults(w, results, cached)
}

// writeResults answers POST /v1/run for the daemon and the gateway: the
// body that encoding an api.RunResponse would give, assembled from
// results that are already encoded, so no JSON pass touches them, its
// Content-Length and the batch's cache disposition header.
func writeResults(w http.ResponseWriter, results []json.RawMessage, cached []bool) {
	n := len(`{"results":[],"cached":[]}`+"\n") + 6*len(cached)
	for _, res := range results {
		n += len(res) + 1
	}
	body := append(make([]byte, 0, n), `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, res...)
	}
	body = append(body, `],"cached":[`...)
	hits := 0
	for i, hit := range cached {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendBool(body, hit)
		if hit {
			hits++
		}
	}
	body = append(body, "]}\n"...)
	h := w.Header()
	h.Set(api.CacheHeader, disposition(hits, len(cached)))
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("Content-Type", "application/json")
	h.Set(api.VersionHeader, core.SimVersion)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// disposition maps a batch's hit count to the X-Slipsim-Cache value.
func disposition(hits, total int) string {
	switch hits {
	case total:
		return api.CacheHit
	case 0:
		return api.CacheMiss
	}
	return api.CachePartial
}

// flightErrStatus maps a failed flight's error to a response status and
// error code: canceled (hard stop) 503, anything else — a deterministic
// simulation or verification failure — 500.
func flightErrStatus(err error) (int, string) {
	if errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable, api.CodeCanceled
	}
	return http.StatusInternalServerError, api.CodeSimFailed
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := api.Health{
		Status:     "ok",
		Version:    core.SimVersion,
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Counts: api.Counts{
			Queued:   s.counts[jobQueued],
			Running:  s.counts[jobRunning],
			Done:     s.counts[jobDone],
			Failed:   s.counts[jobFailed],
			Canceled: s.counts[jobCanceled],
		},
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics serves the service metrics registry: the service.* and
// runcache.* counters and run.count, the simulations its workers ran.
// Runs are simulated unobserved, so no per-run metric reaches it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetrics(w, &s.mu, &s.metrics)
}

// writeMetrics answers GET /metrics for the daemon and the gateway: m in
// the sorted, byte-stable obs text format. It renders under mu, which
// guards m against racing merges, and writes after releasing it, so a
// slow client never holds the lock.
func writeMetrics(w http.ResponseWriter, mu *sync.Mutex, m *obs.Metrics) {
	var buf bytes.Buffer
	mu.Lock()
	err := m.WriteText(&buf)
	mu.Unlock()
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, api.CodeInternal, err, 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(api.VersionHeader, core.SimVersion)
	w.Write(buf.Bytes())
}

// writeAPIError writes a JSON error body with the protocol error code and
// an optional Retry-After hint (seconds; 0 omits the header).
func writeAPIError(w http.ResponseWriter, status int, code string, err error, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, api.ErrorResponse{Error: err.Error(), Code: code})
}

// writeJSON writes a JSON body with the protocol version header. Shared
// by the daemon and gateway handlers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.VersionHeader, core.SimVersion)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, strings.ReplaceAll(err.Error(), "\n", " "), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}
