// Gateway: the fleet-facing front of a slipsimd cluster. A gateway owns
// no simulation workers; it consistent-hashes every normalized spec's
// cache key onto a static replica list and fans batches out over the
// replicas' /v1/run API, so each spec has exactly one home replica — and
// therefore exactly one flight table entry — cluster-wide. In-flight
// coalescing and read-through caching both keep working at fleet scale: N
// gateways in front of M replicas still simulate each distinct spec once.
//
// Hot specs never leave the gateway: it keeps a resultCache of replica
// answers flagged cached, and a batch that cache fully answers makes no
// fan-out, while a partly cached one fans out only its misses. Replica
// results pass through as the bytes the replica encoded; the gateway
// never decodes a core.Result.
//
// Failure policy: a replica that cannot be reached, sends a body that
// does not decode, or reports draining is marked down for a short TTL and
// the affected specs are rehashed to the next replica on the ring, with a
// single retry. The rehash target is a pure function of the key and the
// down set, so concurrent submissions of a spec keep coalescing on the
// fallback replica during an outage. Admission rejections are propagated,
// not absorbed: any replica answering 429 fails the whole gateway batch
// with 429 and the largest Retry-After seen, preserving the
// all-or-nothing contract. So are malformed answers: a replica whose
// answer decodes but does not fit the batch (a result that is not a JSON
// object, arrays that do not align) fails the batch with 502
// upstream_malformed carrying the client's error text, and is not marked
// down. A batch that fails caches nothing.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/obs"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Replicas are the base URLs of the slipsimd replicas the gateway
	// shards over (e.g. "http://10.0.0.1:8056"). Order is irrelevant:
	// placement is by consistent hashing of each spec's cache key.
	Replicas []string

	// HTTPClient overrides the transport used for replica calls; nil
	// selects http.DefaultClient.
	HTTPClient *http.Client
}

// downTTL is how long a replica stays rehashed-around after a transport
// failure before the gateway tries it again.
const downTTL = 2 * time.Second

// Gateway shards /v1/run batches across slipsimd replicas by consistent
// hashing. It keeps only its result cache, the transient down-replica
// marks and its metrics registry, so gateways scale horizontally
// themselves.
// Placement keys are the replicas' cache keys at core.SimVersion, so a
// fleet runs one simulator version.
type Gateway struct {
	replicas []string
	clients  []*client.Client
	ring     *hashRing
	cache    *resultCache

	mu        sync.Mutex
	downUntil []time.Time
	metrics   obs.Metrics
}

// NewGateway validates the replica list and builds the hash ring.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("service: gateway needs at least one replica")
	}
	g := &Gateway{
		replicas:  make([]string, len(cfg.Replicas)),
		clients:   make([]*client.Client, len(cfg.Replicas)),
		downUntil: make([]time.Time, len(cfg.Replicas)),
		cache:     newResultCache(cacheBytes),
	}
	seen := make(map[string]bool)
	for i, r := range cfg.Replicas {
		base := strings.TrimRight(r, "/")
		if base == "" {
			return nil, fmt.Errorf("service: empty replica URL at index %d", i)
		}
		if seen[base] {
			return nil, fmt.Errorf("service: duplicate replica %s", base)
		}
		seen[base] = true
		g.replicas[i] = base
		c := client.New(base)
		c.HTTPClient = cfg.HTTPClient
		g.clients[i] = c
	}
	g.ring = newHashRing(len(g.replicas), func(i int) string { return g.replicas[i] })
	return g, nil
}

// Replicas returns the normalized replica base URLs.
func (g *Gateway) Replicas() []string { return append([]string(nil), g.replicas...) }

// ReplicaFor returns sp's home replica: the first live candidate on the
// ring for the spec's cache key. With no replicas down it is a pure
// function of the spec and the replica list.
func (g *Gateway) ReplicaFor(sp runspec.RunSpec) (string, error) {
	key, err := runcache.KeyFor(core.SimVersion, sp)
	if err != nil {
		return "", err
	}
	return g.replicas[g.ring.candidates(key)[0]], nil
}

// count bumps one gateway metric (obs.Metrics is not lock-free).
func (g *Gateway) count(name string, delta int64) {
	g.mu.Lock()
	g.metrics.Count(name, delta)
	g.mu.Unlock()
}

// CounterValue returns one gateway metrics counter (for tests and smoke
// checks).
func (g *Gateway) CounterValue(name string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.metrics.Counter(name)
}

// markDown records a replica failure so subsequent placement rehashes
// around it until the TTL passes.
func (g *Gateway) markDown(rep int) {
	g.mu.Lock()
	g.downUntil[rep] = time.Now().Add(downTTL)
	g.metrics.Count("gateway.replica.down", 1)
	g.mu.Unlock()
}

// pick places key on the first candidate replica that is neither marked
// down nor excluded. If everything is down it falls back to the first
// non-excluded candidate: a stale down-mark must degrade to a failed
// request, not an unservable one.
func (g *Gateway) pick(key string, exclude int) int {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	cands := g.ring.candidates(key)
	for _, rep := range cands {
		if rep != exclude && now.After(g.downUntil[rep]) {
			return rep
		}
	}
	for _, rep := range cands {
		if rep != exclude {
			return rep
		}
	}
	return cands[0]
}

// Handler returns the gateway's HTTP API: the same POST /v1/run contract
// a replica serves (so clients cannot tell a gateway from a daemon),
// plus aggregated health and the gateway's own metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathRun, g.handleRun)
	mux.HandleFunc("GET "+api.PathHealthz, g.handleHealth)
	mux.HandleFunc("GET "+api.PathMetrics, g.handleMetrics)
	return mux
}

// subOutcome is one replica sub-batch's result within a fan-out round.
type subOutcome struct {
	indices []int // request spec indices served by this replica
	resp    *api.RawRunResponse
	err     error
}

// fanOut submits one sub-batch per replica concurrently. groups is
// indexed by replica; the returned slice too, so iteration order stays
// deterministic.
func (g *Gateway) fanOut(r *http.Request, specs []runspec.RunSpec, groups [][]int) []subOutcome {
	out := make([]subOutcome, len(g.replicas))
	var wg sync.WaitGroup
	for rep, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		out[rep].indices = idxs
		sub := api.RunRequest{Specs: make([]runspec.RunSpec, len(idxs))}
		for j, i := range idxs {
			sub.Specs[j] = specs[i]
		}
		wg.Add(1)
		go func(rep int, sub api.RunRequest) {
			defer wg.Done()
			resp, _, err := g.clients[rep].SubmitRaw(r.Context(), sub)
			out[rep].resp, out[rep].err = resp, err
		}(rep, sub)
		g.count("gateway.fanout", 1)
	}
	wg.Wait()
	return out
}

// replicaDown classifies an error from a replica call as "the replica is
// gone, rehash": transport failures, bodies that do not decode, and
// draining daemons. Admission rejections, job failures and malformed
// answers are replica answers, not absence; marking an answering replica
// down would rehash every spec homed on it for downTTL and simulate them
// again elsewhere. Nor is the caller's own context ending (client
// disconnect mid-fan-out, request deadline) absence: it says nothing
// about the replica's health and must not poison the down set for
// unrelated requests.
func replicaDown(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code == api.CodeDraining
	}
	if errors.Is(err, client.ErrMalformed) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRunRequest(w, r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		return
	}

	// Validate every spec before any is answered: like a daemon's
	// admission, a bad batch is rejected whole.
	specs := make([]runspec.RunSpec, len(req.Specs))
	for i, sp := range req.Specs {
		if err := sp.Validate(); err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Errorf("spec %d (%v): %w", i, sp, err), 0)
			return
		}
		specs[i] = sp.Normalize()
	}

	// The cache answers what it can; only the misses fan out.
	results := make([]json.RawMessage, len(specs))
	cached := make([]bool, len(specs))
	var misses []int
	for i, sp := range specs {
		if res, ok := g.cache.get(sp); ok {
			results[i], cached[i] = res, true
		} else {
			misses = append(misses, i)
		}
	}
	g.mu.Lock()
	g.metrics.Count("gateway.requests", 1)
	g.metrics.Count("gateway.specs", int64(len(specs)))
	if hits := len(specs) - len(misses); hits > 0 {
		g.metrics.Count("gateway.cache.hit", int64(hits))
	}
	g.mu.Unlock()

	if len(misses) > 0 {
		if apiErr := g.forward(r, specs, misses, results, cached); apiErr != nil {
			writeAPIError(w, apiErr.StatusCode, apiErr.Code, errors.New(apiErr.Message), apiErr.RetryAfter)
			return
		}
		// Only a whole answer is cached, and of it only what a replica
		// answered without simulating.
		for _, i := range misses {
			if cached[i] {
				g.cache.add(specs[i], results[i])
			}
		}
	}
	writeResults(w, results, cached)
}

// forward answers the specs at indices misses from their home replicas,
// filling results and cached, or returns the error that fails the whole
// batch.
func (g *Gateway) forward(r *http.Request, specs []runspec.RunSpec, misses []int,
	results []json.RawMessage, cached []bool) *client.APIError {
	keys := make([]string, len(specs))
	placed := make([]int, len(specs))
	groups := make([][]int, len(g.replicas))
	for _, i := range misses {
		key, err := runcache.KeyFor(core.SimVersion, specs[i])
		if err != nil {
			return &client.APIError{StatusCode: http.StatusInternalServerError, Code: api.CodeInternal, Message: err.Error()}
		}
		keys[i] = key
		placed[i] = g.pick(key, -1)
		groups[placed[i]] = append(groups[placed[i]], i)
	}

	// rejections collects replica answers that fail the batch; index is
	// the smallest request index the answer covers, for deterministic
	// precedence.
	type rejection struct {
		minIndex int
		err      *client.APIError
	}
	var rejections []rejection
	var downSpecs []int
	for round := 0; round < 2; round++ {
		outcomes := g.fanOut(r, specs, groups)
		var retry []int
		for rep, oc := range outcomes { // replica order: deterministic
			switch {
			case len(oc.indices) == 0:
			case oc.err == nil:
				for j, i := range oc.indices {
					results[i] = oc.resp.Results[j]
					cached[i] = oc.resp.Cached[j]
				}
			case replicaDown(oc.err):
				g.markDown(rep)
				retry = append(retry, oc.indices...)
			default:
				apiErr, ok := oc.err.(*client.APIError)
				if !ok {
					apiErr = &client.APIError{
						StatusCode: http.StatusBadGateway,
						Code:       api.CodeInternal,
						Message:    oc.err.Error(),
					}
				}
				if errors.Is(oc.err, client.ErrMalformed) {
					g.count("gateway.replica.malformed", 1)
					apiErr.Code = api.CodeUpstreamMalformed
					apiErr.Message = g.replicas[rep] + " answered: " + apiErr.Message
				}
				rejections = append(rejections, rejection{minIndex: oc.indices[0], err: apiErr})
			}
		}
		if len(retry) == 0 {
			break
		}
		if round == 1 {
			// Second round also failed: out of retries.
			downSpecs = retry
			break
		}
		// Rehash each failed spec past its dead home — a pure function of
		// the key and the down set, so every concurrent submission of the
		// same spec converges on the same fallback replica and coalescing
		// survives the outage.
		groups = make([][]int, len(g.replicas))
		for _, i := range retry {
			next := g.pick(keys[i], placed[i])
			if next == placed[i] {
				downSpecs = append(downSpecs, i)
				continue
			}
			groups[next] = append(groups[next], i)
			g.count("gateway.rehash", 1)
		}
	}

	// Error precedence, deterministic under concurrency: backpressure
	// first (the whole batch is retryable), then the replica answer
	// covering the earliest spec, then unreachable replicas.
	var backpressure, firstErr *rejection
	for i := range rejections {
		rej := &rejections[i]
		if rej.err.StatusCode == http.StatusTooManyRequests {
			if backpressure == nil || rej.err.RetryAfter > backpressure.err.RetryAfter {
				backpressure = rej
			}
		}
		if firstErr == nil || rej.minIndex < firstErr.minIndex {
			firstErr = rej
		}
	}
	switch {
	case backpressure != nil:
		g.count("gateway.rejected.backpressure", 1)
		return &client.APIError{
			StatusCode: http.StatusTooManyRequests,
			Code:       backpressure.err.Code,
			Message:    "replica backpressure: " + backpressure.err.Message,
			RetryAfter: max(backpressure.err.RetryAfter, 1),
		}
	case firstErr != nil:
		return &client.APIError{
			StatusCode: firstErr.err.StatusCode,
			Code:       firstErr.err.Code,
			Message:    "replica: " + firstErr.err.Message,
			RetryAfter: firstErr.err.RetryAfter,
		}
	case len(downSpecs) > 0:
		g.count("gateway.rejected.upstream", 1)
		return &client.APIError{
			StatusCode: http.StatusBadGateway,
			Code:       api.CodeUpstreamDown,
			Message:    fmt.Sprintf("no live replica for %d spec(s) after rehash", len(downSpecs)),
		}
	}
	return nil
}

// handleHealth aggregates replica health: the gateway is "ok" when every
// replica answers, "degraded" otherwise.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:   "ok",
		Version:  core.SimVersion,
		Replicas: make([]api.ReplicaHealth, len(g.replicas)),
	}
	var wg sync.WaitGroup
	for i := range g.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rh := api.ReplicaHealth{URL: g.replicas[i]}
			if rep, err := g.clients[i].Health(r.Context()); err != nil {
				rh.Status = "down"
				rh.Error = err.Error()
			} else {
				rh.Status = rep.Status
			}
			h.Replicas[i] = rh
		}(i)
	}
	wg.Wait()
	for _, rh := range h.Replicas {
		if rh.Status != "ok" {
			h.Status = "degraded"
			break
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetrics(w, &g.mu, &g.metrics)
}
