// Package api is version 1 of the slipsimd wire protocol: the paths and
// the request, response, status, error, and header types exchanged by the
// serving daemon and the gateway (internal/service) and the typed client
// (internal/service/client). Server and client both consume this one
// package, so the wire format cannot drift between them. The protocol
// carries run requests and their answers only: no endpoint accepts a
// result or a cache entry.
//
// Compatibility contract: within protocol version 1 (the /v1 path
// prefix), changes are additive only — new optional fields, new error
// codes, new header values — except that a field or path no client uses
// may be removed. A request naming a removed field gets 400 and one to a
// removed path gets 404, so it is refused, never misread. Removed so far:
// the "priority" request field, the /v1/cache/ entry path, the /runs job
// history together with RunResponse's "jobs" array, whose ids only named
// /runs records, and the "timeout_ms" request field together with the
// "deadline" error code it alone produced. RunSpec and Result keep their
// symbolic JSON encodings (mode, policy, and size names), so requests are
// hand-writable and responses byte-identical to local `slipsim` output.
//
// Those names decode as JSON strings, escapes and all, so "\u0073ingle"
// names the single mode. A null mode, policy, or size is the same as an
// absent one, as a null "cmps" is. A result whose "verify_err" member is
// present, even as "", is unverified; one without it, or with null,
// verified.
//
// Every body decodes exactly as encoding/json decodes it: the same value
// or the same error. DecodeRunResponse and DecodeRunRequest read the form
// json.Marshal writes in one pass, planned at init from the wire types'
// struct tags, and hand anything else (an escape, a null, a float, a key
// in another case, a repeated key, a Params object) to encoding/json.
package api

import (
	"encoding/json"

	"slipstream/internal/core"
	"slipstream/internal/runspec"
)

// Endpoint paths of protocol version 1.
const (
	// PathRun accepts POST RunRequest batches.
	PathRun = "/v1/run"
	// PathHealthz serves liveness, drain state, and job counts.
	PathHealthz = "/healthz"
	// PathMetrics serves the deterministic text metrics registry.
	PathMetrics = "/metrics"
)

// RunRequest is the body of POST /v1/run: a batch of specs. Specs equal
// after normalization share one job — per daemon, and through the
// gateway's consistent hashing one job across the whole cluster. A body
// with any other field, or with anything but white space after its
// object, is rejected with CodeBadRequest.
type RunRequest struct {
	Specs []runspec.RunSpec `json:"specs"`
}

// RunResponse is the success body of POST /v1/run. Results align with the
// request's specs, as does Cached.
type RunResponse struct {
	Results []*core.Result `json:"results"`
	// Cached reports, per spec, that the answer was served without
	// simulating: from a daemon's persistent store, its cache of results
	// the store answered, or a gateway's cache of replica answers that
	// were themselves cached. A fresh simulation, or a join of one
	// already queued or running, reads false.
	Cached []bool `json:"cached"`
}

// RawRunResponse is a RunResponse with each result left as the JSON its
// server sent: the gateway forwards replica results without decoding
// them.
type RawRunResponse struct {
	Results []json.RawMessage `json:"results"`
	Cached  []bool            `json:"cached"`
}

// Error codes carried by ErrorResponse.Code: machine-readable failure
// classes, stable within protocol version 1. Clients branch on the code,
// not the message.
const (
	// CodeBadRequest: malformed body, unknown field, invalid spec.
	CodeBadRequest = "bad_request"
	// CodeQueueFull: admission backpressure; retry after Retry-After.
	CodeQueueFull = "queue_full"
	// CodeDraining: the daemon is shutting down; submit elsewhere.
	CodeDraining = "draining"
	// CodeCanceled: the job was canceled by a hard stop.
	CodeCanceled = "canceled"
	// CodeSimFailed: the simulation or its numeric verification failed
	// deterministically; retrying the same spec will fail again.
	CodeSimFailed = "sim_failed"
	// CodeUpstreamDown: the gateway could not reach any replica for part
	// of the batch, even after rehashing.
	CodeUpstreamDown = "upstream_down"
	// CodeUpstreamMalformed: a replica answered 200 with results that do
	// not fit the batch: one that is not a JSON object, or arrays that do
	// not align with the specs.
	CodeUpstreamMalformed = "upstream_malformed"
	// CodeInternal: anything else.
	CodeInternal = "internal"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies the failure (the Code* constants).
	Code string `json:"code,omitempty"`
}

// Health is the body of GET /healthz. A gateway reports Status
// "degraded" when some replicas are unreachable and lists them in
// Replicas; a replica daemon leaves Replicas empty.
type Health struct {
	Status     string          `json:"status"` // "ok", "draining", or "degraded"
	Version    string          `json:"version"`
	Workers    int             `json:"workers"`
	QueueDepth int             `json:"queue_depth"`
	Counts     Counts          `json:"counts"`
	Replicas   []ReplicaHealth `json:"replicas,omitempty"`
}

// Counts breaks the daemon's jobs down by state: those queued or running
// now, and how many have ever finished done, failed, or canceled. A job
// is a simulation; a spec answered from the store or the cache makes
// none.
type Counts struct {
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
}

// ReplicaHealth is one replica's state as seen from the gateway.
type ReplicaHealth struct {
	URL    string `json:"url"`
	Status string `json:"status"` // "ok", "draining", or "down"
	Error  string `json:"error,omitempty"`
}

// Cache-status header values (X-Slipsim-Cache) of POST /v1/run responses.
const (
	// CacheHeader names the response header carrying the batch's cache
	// disposition.
	CacheHeader = "X-Slipsim-Cache"
	// CacheHit: every spec was served without simulating (see
	// RunResponse.Cached).
	CacheHit = "hit"
	// CacheMiss: no spec was served from cache.
	CacheMiss = "miss"
	// CachePartial: a mix of hits and misses.
	CachePartial = "partial"
)

// VersionHeader carries the simulator semantics version on every
// response.
const VersionHeader = "X-Slipsim-Version"
