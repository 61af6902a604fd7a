package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/memsys"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// cluster is an in-process slipsimd fleet: n replicas behind one gateway.
type cluster struct {
	servers  []*service.Server
	backends []*httptest.Server
	gateway  *service.Gateway
	front    *httptest.Server
}

// newCluster starts n replicas (each configured by cfg(i)) and a gateway
// over them. Everything is torn down with the test.
func newCluster(t *testing.T, n int, cfg func(i int) service.Config) *cluster {
	t.Helper()
	return newClusterVia(t, n, cfg, nil)
}

// newClusterVia is newCluster with the gateway calling its replicas
// through hc (nil: http.DefaultClient).
func newClusterVia(t *testing.T, n int, cfg func(i int) service.Config, hc *http.Client) *cluster {
	t.Helper()
	cl := &cluster{}
	replicas := make([]string, n)
	for i := 0; i < n; i++ {
		s := service.New(cfg(i))
		ts := httptest.NewServer(s.Handler())
		cl.servers = append(cl.servers, s)
		cl.backends = append(cl.backends, ts)
		replicas[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			s.StartDrain()
			s.Wait()
		})
	}
	g, err := service.NewGateway(service.GatewayConfig{Replicas: replicas, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	cl.gateway = g
	cl.front = httptest.NewServer(g.Handler())
	t.Cleanup(cl.front.Close)
	return cl
}

func (cl *cluster) client() *client.Client { return client.New(cl.front.URL) }

// simCount sums run.count over the fleet: how many simulations actually
// executed anywhere.
func (cl *cluster) simCount() int64 {
	var n int64
	for _, s := range cl.servers {
		n += s.CounterValue("run.count")
	}
	return n
}

// replicaIndex maps a replica base URL back to its index in the cluster.
func (cl *cluster) replicaIndex(t *testing.T, url string) int {
	t.Helper()
	for i, ts := range cl.backends {
		if ts.URL == url {
			return i
		}
	}
	t.Fatalf("unknown replica %s", url)
	return -1
}

// TestGatewayClusterWideCoalescing pins the tentpole property: identical
// specs submitted concurrently through the gateway land on one replica's
// flight table, so the whole fleet simulates the spec exactly once, and
// every caller gets a byte-identical result. The flight is held running
// until every duplicate has joined it: the replicas have no store, so
// nothing else could answer them.
func TestGatewayClusterWideCoalescing(t *testing.T) {
	const callers = 24
	cl := newCluster(t, 3, func(int) service.Config { return service.Config{Workers: 2} })
	for _, s := range cl.servers {
		s.SetRunStarted(holdForJoins(callers-1, cl.servers...))
	}
	c := cl.client()
	spec := specTL(2)

	local, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("caller %d: gateway result differs from local run:\n%s\nvs\n%s", i, got, want)
		}
	}
	if got := cl.simCount(); got != 1 {
		t.Errorf("fleet run.count = %d after %d identical submissions, want 1", got, callers)
	}
	if got := cl.gateway.CounterValue("gateway.requests"); got != callers {
		t.Errorf("gateway.requests = %d, want %d", got, callers)
	}
}

// TestGatewayShardsDistinctSpecs pins placement: a mixed batch fans out
// by each spec's content key, results come back in request order, and
// distinct specs simulate exactly once each fleet-wide even when
// resubmitted through the gateway.
func TestGatewayShardsDistinctSpecs(t *testing.T) {
	cl := newCluster(t, 3, func(int) service.Config {
		return service.Config{Workers: 2, Cache: openStore(t)}
	})
	c := cl.client()
	specs := []runspec.RunSpec{specTL(1), specTL(2), specTL(4), specTL(8)}

	resp, _, err := c.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		local, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		got, _ := json.Marshal(resp.Results[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %d: gateway result differs from local run", i)
		}
	}
	if got := cl.simCount(); got != int64(len(specs)) {
		t.Errorf("fleet run.count = %d, want %d", got, len(specs))
	}

	// Resubmitting the batch is answered from the replicas' stores: no new
	// simulations anywhere, and the gateway reports the hit disposition.
	_, disp, err := c.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if disp != api.CacheHit {
		t.Errorf("repeat batch disposition = %q, want %q", disp, api.CacheHit)
	}
	if got := cl.simCount(); got != int64(len(specs)) {
		t.Errorf("fleet run.count = %d after repeat, want %d", got, len(specs))
	}
}

// TestGatewayFailoverMidFlight pins the rehash path: the home replica of
// a spec dies mid-flight (connections severed while its job runs), the
// gateway marks it down and rehashes the spec to the next ring candidate,
// and the caller still receives a result byte-identical to a local run.
func TestGatewayFailoverMidFlight(t *testing.T) {
	spec := specTL(2)
	cl := newCluster(t, 3, func(int) service.Config { return service.Config{Workers: 2} })
	home, err := cl.gateway.ReplicaFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	hi := cl.replicaIndex(t, home)

	// When the home replica starts simulating, sever every client
	// connection: the gateway's in-flight submit fails at the transport
	// level, exactly like a crashed daemon.
	var once sync.Once
	cl.servers[hi].SetRunStarted(func(runspec.RunSpec) {
		once.Do(cl.backends[hi].CloseClientConnections)
	})

	local, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)

	res, _, err := cl.client().Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("submission through failover: %v", err)
	}
	got, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from local run:\n%s\nvs\n%s", got, want)
	}
	if n := cl.gateway.CounterValue("gateway.rehash"); n != 1 {
		t.Errorf("gateway.rehash = %d, want 1", n)
	}
	if n := cl.gateway.CounterValue("gateway.replica.down"); n != 1 {
		t.Errorf("gateway.replica.down = %d, want 1", n)
	}

	// The rehashed flight ran on a different, live replica.
	var elsewhere int64
	for i, s := range cl.servers {
		if i != hi {
			elsewhere += s.CounterValue("run.count")
		}
	}
	if elsewhere != 1 {
		t.Errorf("run.count off the dead replica = %d, want 1", elsewhere)
	}
}

// TestGatewayPropagatesBackpressure pins the all-or-nothing contract
// across the fleet: a replica rejecting with 429 fails the whole gateway
// batch with 429 and a Retry-After hint, and the gateway's own error
// carries the replica's machine-readable code.
func TestGatewayPropagatesBackpressure(t *testing.T) {
	// One replica so every spec routes to the congested daemon.
	cl := newCluster(t, 1, func(int) service.Config {
		return service.Config{Workers: 1, QueueDepth: 1}
	})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var releaseOnce sync.Once
	openRelease := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(openRelease) // runs before the cluster drain-and-wait cleanup
	cl.servers[0].SetRunStarted(func(runspec.RunSpec) {
		started <- struct{}{}
		<-release
	})
	c := cl.client()
	ctx := context.Background()

	// Occupy the worker, then the one queue slot.
	kick := make(chan error, 2)
	go func() { _, _, err := c.RunBatch(ctx, []runspec.RunSpec{specTL(1)}); kick <- err }()
	<-started // the worker holds spec 1; the queue is empty again
	go func() { _, _, err := c.RunBatch(ctx, []runspec.RunSpec{specTL(2)}); kick <- err }()
	awaitCounter(t, cl.servers[0], "service.submissions", 2)

	_, _, err := c.RunBatch(ctx, []runspec.RunSpec{specTL(4)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("overload submission err = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", apiErr.StatusCode)
	}
	if apiErr.Code != api.CodeQueueFull {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeQueueFull)
	}
	if apiErr.RetryAfter < 1 {
		t.Errorf("RetryAfter = %d, want >= 1", apiErr.RetryAfter)
	}
	if n := cl.gateway.CounterValue("gateway.rejected.backpressure"); n != 1 {
		t.Errorf("gateway.rejected.backpressure = %d, want 1", n)
	}
	// A rejected replica is NOT a down replica: no rehash happened.
	if n := cl.gateway.CounterValue("gateway.rehash"); n != 0 {
		t.Errorf("gateway.rehash = %d after a 429, want 0", n)
	}

	openRelease()
	for i := 0; i < 2; i++ {
		if err := <-kick; err != nil {
			t.Errorf("held submission %d: %v", i, err)
		}
	}
}

// awaitCounter polls a server metrics counter until it reaches want.
func awaitCounter(t *testing.T, s *service.Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.CounterValue(name) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, s.CounterValue(name))
}

// TestGatewayRejectsBadBatchWhole pins gateway admission: a batch with
// one invalid spec is refused up front with 400 and never reaches any
// replica. A replica that ran the negative-latency machine would panic.
func TestGatewayRejectsBadBatchWhole(t *testing.T) {
	cl := newCluster(t, 2, func(int) service.Config { return service.Config{Workers: 1} })
	siWithoutTL := specTL(2)
	siWithoutTL.TransparentLoads = false
	siWithoutTL.SelfInvalidate = true // requires transparent loads
	pastNet := specTL(2)
	pastNet.Machine = memsys.DefaultParams(2)
	pastNet.Machine.NetTime = -500

	for _, bad := range []runspec.RunSpec{siWithoutTL, pastNet} {
		_, _, err := cl.client().RunBatch(context.Background(), []runspec.RunSpec{specTL(1), bad})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("err = %v, want 400 APIError", err)
		}
		if apiErr.Code != api.CodeBadRequest {
			t.Errorf("code = %q, want %q", apiErr.Code, api.CodeBadRequest)
		}
	}
	for i, s := range cl.servers {
		if n := s.CounterValue("service.submissions"); n != 0 {
			t.Errorf("replica %d admitted %d submissions from a rejected batch", i, n)
		}
	}
}

// openStore opens a run cache in a directory removed with the test.
func openStore(t *testing.T) *runcache.Cache {
	t.Helper()
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// tripCounter is an http.RoundTripper that counts the gateway's replica
// round trips.
type tripCounter struct{ n atomic.Int64 }

func (c *tripCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestGatewayAnswersHotSpecs pins the gateway's cache. A spec's first
// submission simulates and its second is a replica store hit; from the
// third on, the gateway answers it with no replica round trip, in a body
// byte-identical to the answer envelope around json.Marshal of a local
// core.Run. A batch of that spec and a fresh one fans out only the fresh
// one.
func TestGatewayAnswersHotSpecs(t *testing.T) {
	trips := &tripCounter{}
	cl := newClusterVia(t, 2, func(int) service.Config {
		return service.Config{Workers: 1, Cache: openStore(t)}
	}, &http.Client{Transport: trips})
	spec := specTL(2)
	local, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.RunRequest{Specs: []runspec.RunSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		cached bool
		trips  int64
	}{{false, 1}, {true, 2}, {true, 2}, {true, 2}} {
		resp, err := http.Post(cl.front.URL+api.PathRun, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantBody := fmt.Sprintf(`{"results":[%s],"cached":[%t]}`+"\n", enc, want.cached)
		if resp.StatusCode != http.StatusOK || string(got) != wantBody {
			t.Fatalf("submission %d: HTTP %d body\n%s\nwant\n%s", i+1, resp.StatusCode, got, wantBody)
		}
		if n := trips.n.Load(); n != want.trips {
			t.Errorf("after submission %d: %d replica round trips, want %d", i+1, n, want.trips)
		}
	}
	if n := cl.gateway.CounterValue("gateway.cache.hit"); n != 2 {
		t.Errorf("gateway.cache.hit = %d, want 2", n)
	}

	specs := []runspec.RunSpec{spec, specTL(4)}
	resp, disp, err := cl.client().RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if disp != api.CachePartial || !resp.Cached[0] || resp.Cached[1] {
		t.Errorf("hot+fresh batch: disposition %q, cached %v; want %q, [true false]", disp, resp.Cached, api.CachePartial)
	}
	var replicaSpecs int64
	for _, s := range cl.servers {
		replicaSpecs += s.CounterValue("service.specs")
	}
	if trips.n.Load() != 3 || replicaSpecs != 3 {
		t.Errorf("hot+fresh batch: %d round trips in all carrying %d specs, want 3 and 3", trips.n.Load(), replicaSpecs)
	}
	if got := cl.simCount(); got != 2 {
		t.Errorf("fleet run.count = %d, want 2", got)
	}
}

// TestGatewayRejectsMalformedReplicaAnswers pins that the gateway checks
// the shape of what it forwards without decoding it: a replica answering
// a result that is not a JSON object, or arrays that do not align with
// the specs, gets the batch a 502 upstream_malformed that names the
// replica and carries the client's reason, counts
// gateway.replica.malformed, and caches nothing of it, although every
// answer claims to be cached. The replica answered, so it is not marked
// down: each bad answer is asked for twice, and both times reaches the
// replica with no rehash.
func TestGatewayRejectsMalformedReplicaAnswers(t *testing.T) {
	var answer atomic.Value
	var calls atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, answer.Load().(string))
	}))
	t.Cleanup(replica.Close)
	g, err := service.NewGateway(service.GatewayConfig{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)

	const notObject, misaligned = "result 0 is not a JSON object", "misaligned: "
	var made int64
	for _, tc := range []struct{ bad, reason string }{
		{`{"results":[null],"cached":[true]}`, notObject},
		{`{"results":[42],"cached":[true]}`, notObject},
		{`{"results":["x"],"cached":[true]}`, notObject},
		{`{"results":[{}],"cached":[]}`, misaligned + "1 results, 0 cached for 1 specs"},
		{`{"results":[{},{}],"cached":[true,true]}`, misaligned + "2 results, 2 cached for 1 specs"},
	} {
		answer.Store(tc.bad)
		want := "replica: " + replica.URL + " answered: client: malformed response: " + tc.reason
		for try := 1; try <= 2; try++ {
			_, _, err := client.New(front.URL).Run(context.Background(), specTL(2))
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
				t.Fatalf("replica answering %s, try %d: err = %v, want a 502 APIError", tc.bad, try, err)
			}
			if apiErr.Code != api.CodeUpstreamMalformed || apiErr.Message != want {
				t.Errorf("replica answering %s, try %d: code %q message %q, want %q %q",
					tc.bad, try, apiErr.Code, apiErr.Message, api.CodeUpstreamMalformed, want)
			}
			made++
			if n := calls.Load(); n != made {
				t.Fatalf("replica answering %s, try %d: %d replica calls, want %d", tc.bad, try, n, made)
			}
			if n := g.CounterValue("gateway.replica.malformed"); n != made {
				t.Errorf("replica answering %s, try %d: gateway.replica.malformed = %d, want %d", tc.bad, try, n, made)
			}
		}
	}
	for name, want := range map[string]int64{"gateway.cache.hit": 0, "gateway.replica.down": 0, "gateway.rehash": 0} {
		if n := g.CounterValue(name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}
