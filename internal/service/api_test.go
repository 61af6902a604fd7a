package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

func newServed(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.StartDrain()
		s.Wait()
	})
	return s, client.New(ts.URL)
}

// holdForJoins returns a runStarted hook that holds a flight running
// until the servers have counted want coalesced joins between them, or
// for at most ten seconds, so a test's duplicates all arrive while the
// flight is in the table.
func holdForJoins(want int64, servers ...*service.Server) func(runspec.RunSpec) {
	return func(runspec.RunSpec) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			var joins int64
			for _, s := range servers {
				joins += s.CounterValue("service.coalesced")
			}
			if joins >= want {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func specTL(cmps int) runspec.RunSpec {
	return runspec.RunSpec{Kernel: "SOR", Size: kernels.Tiny, Mode: core.ModeSlipstream,
		CMPs: cmps, TransparentLoads: true}
}

// TestCoalescingManyIdentical is the satellite coverage for in-flight
// request coalescing: 32 goroutines submit the same spec while its flight
// is held running, and exactly one simulation executes — pinned by the
// run.count the daemon's workers keep — while every caller receives a
// deep-equal Result. The daemon has no store, so only coalescing can
// answer the duplicates. Its /metrics holds service counters and
// run.count only: runs are simulated unobserved.
func TestCoalescingManyIdentical(t *testing.T) {
	const callers = 32
	s, c := newServed(t, service.Config{Workers: 2})
	s.SetRunStarted(holdForJoins(callers-1, s))
	spec := specTL(2)

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

	want, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("caller %d received a different result:\n%s\nvs\n%s", i, got, want)
		}
	}

	// Exactly one core.Run executed.
	if got := s.CounterValue("run.count"); got != 1 {
		t.Errorf("run.count = %d after %d identical submissions, want 1", got, callers)
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "counter run.count 1\n") {
		t.Errorf("/metrics missing 'counter run.count 1':\n%s", metrics)
	}
	for _, line := range strings.Split(strings.TrimSuffix(metrics, "\n"), "\n") {
		f := strings.Fields(line)
		ok := len(f) == 3 && f[0] == "counter" && f[1] != "service.sim.count" &&
			(f[1] == "run.count" || strings.HasPrefix(f[1], "service.") || strings.HasPrefix(f[1], "runcache."))
		if !ok {
			t.Errorf("/metrics line %q is not a service counter or run.count", line)
		}
	}
}

// TestServerMatchesLocal pins the end-to-end determinism guarantee the
// serving layer advertises: a spec executed through the daemon returns a
// Result byte-identical (JSON) to the same spec simulated locally, and a
// repeat submission is answered from cache with the hit header.
func TestServerMatchesLocal(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newServed(t, service.Config{Workers: 2, Cache: cache})
	spec := runspec.RunSpec{Kernel: "WATER-SP", Size: kernels.Tiny, Mode: core.ModeSlipstream,
		CMPs: 2, TransparentLoads: true, SelfInvalidate: true}

	local, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	remote, cached, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Errorf("first submission reported cached")
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSON, remoteJSON) {
		t.Fatalf("served result differs from local run:\nlocal:  %s\nserved: %s", localJSON, remoteJSON)
	}

	// The repeat is a cache hit end to end, and still byte-identical.
	resp, disposition, err := c.RunBatch(context.Background(), []runspec.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if disposition != api.CacheHit {
		t.Errorf("second submission %s = %q, want %q", api.CacheHeader, disposition, api.CacheHit)
	}
	if !resp.Cached[0] {
		t.Errorf("second submission Cached[0] = false, want true")
	}
	repeatJSON, err := json.Marshal(resp.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSON, repeatJSON) {
		t.Fatalf("cached result differs from local run")
	}
}

// TestBatchDispositions pins the cache header across hit/miss mixes, and
// that duplicate specs in one batch make one simulation. The store
// answers the first repeat of a spec and the cache the later ones.
func TestBatchDispositions(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newServed(t, service.Config{Workers: 2, Cache: cache})
	a, b := specTL(1), specTL(2)
	ctx := context.Background()

	_, disp, err := c.RunBatch(ctx, []runspec.RunSpec{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if disp != api.CacheMiss {
		t.Errorf("fresh duplicate batch disposition = %q, want %q", disp, api.CacheMiss)
	}
	if got := s.CounterValue("run.count"); got != 1 {
		t.Errorf("run.count = %d after a batch of two equal specs, want 1", got)
	}

	if _, disp, err = c.RunBatch(ctx, []runspec.RunSpec{a, b}); err != nil {
		t.Fatal(err)
	} else if disp != api.CachePartial {
		t.Errorf("stored+fresh batch disposition = %q, want %q", disp, api.CachePartial)
	}

	if _, disp, err = c.RunBatch(ctx, []runspec.RunSpec{a, b}); err != nil {
		t.Fatal(err)
	} else if disp != api.CacheHit {
		t.Errorf("cached+stored batch disposition = %q, want %q", disp, api.CacheHit)
	}
	if got := s.CounterValue("run.count"); got != 2 {
		t.Errorf("run.count = %d after three batches over two specs, want 2", got)
	}
}

// TestRunsAndHealth covers the status surface: /healthz reports counts
// and the semantics version, and the daemon keeps no job history, so a
// run answer names no jobs and GET /runs gets 404.
func TestRunsAndHealth(t *testing.T) {
	_, c := newServed(t, service.Config{Workers: 2})
	ctx := context.Background()
	body, err := json.Marshal(api.RunRequest{Specs: []runspec.RunSpec{specTL(1), specTL(2)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+api.PathRun, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var answer map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&answer)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	for name := range answer {
		fields = append(fields, name)
	}
	sort.Strings(fields)
	if got := strings.Join(fields, ","); got != "cached,results" {
		t.Errorf("run answer has fields %s, want cached,results", got)
	}

	resp, err = http.Get(c.Base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /runs: HTTP %d, want 404", resp.StatusCode)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health.Status = %q, want ok", h.Status)
	}
	if h.Version != core.SimVersion {
		t.Errorf("health.Version = %q, want %q", h.Version, core.SimVersion)
	}
	if h.Counts.Done != 2 {
		t.Errorf("health.Counts.Done = %d, want 2", h.Counts.Done)
	}
}

// TestForgedCacheWriteRefused pins that a daemon takes no cache entry from
// the network. A well-formed entry claiming 42 cycles for a spec passes
// every check an entry can be given, since only a simulation can tell its
// result is wrong. Its PUT gets 404; the next run of the spec simulates
// and answers the real cycles, which are what the store then holds.
func TestForgedCacheWriteRefused(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newServed(t, service.Config{Workers: 1, Cache: cache})
	spec := specTL(2)
	key, err := cache.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := json.Marshal(map[string]any{
		"version": core.SimVersion,
		"spec":    spec.Normalize(),
		"result":  &core.Result{Kernel: spec.Kernel, Mode: spec.Mode, CMPs: spec.CMPs, Cycles: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, c.Base+"/v1/cache/"+key, bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("forged PUT: HTTP %d, want 404", resp.StatusCode)
	}

	want, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached || got.Cycles != want.Cycles {
		t.Errorf("run after forged PUT: %d cycles, cached=%t; want %d, not cached", got.Cycles, cached, want.Cycles)
	}
	if n := s.CounterValue("run.count"); n != 1 {
		t.Errorf("run.count = %d, want 1", n)
	}
	stored, ok, err := cache.Load(spec)
	if !ok || err != nil || stored.Cycles != want.Cycles {
		t.Errorf("store after the run: ok=%t err=%v result=%+v, want %d cycles", ok, err, stored, want.Cycles)
	}
}

// TestPriorityFieldRejected pins that a run request names neither a
// priority nor a per-job deadline, the fields of the removed priority
// tiers and timeout_ms: the daemon and the gateway share one decoder,
// which refuses either unknown field with 400 bad_request before anything
// is admitted.
func TestPriorityFieldRejected(t *testing.T) {
	cl := newCluster(t, 1, func(int) service.Config { return service.Config{Workers: 1} })
	for _, field := range []string{`"priority":"batch"`, `"timeout_ms":60000`} {
		body := `{"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","cmps":2}],` + field + `}`
		for _, base := range []string{cl.backends[0].URL, cl.front.URL} {
			resp, err := http.Post(base+api.PathRun, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var er api.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || er.Code != api.CodeBadRequest {
				t.Errorf("%s with %s: HTTP %d code %q, want 400 %q", base, field, resp.StatusCode, er.Code, api.CodeBadRequest)
			}
		}
	}
	if n := cl.servers[0].CounterValue("service.submissions"); n != 0 {
		t.Errorf("service.submissions = %d, want 0", n)
	}
}

// TestOversizedBodyRejected pins the request body bound: a valid batch
// behind enough white space to make the body one byte longer than the
// bound gets 400 bad_request from the daemon and from the gateway, and
// nothing is admitted.
func TestOversizedBodyRejected(t *testing.T) {
	cl := newCluster(t, 1, func(int) service.Config { return service.Config{Workers: 1} })
	batch := `{"specs":[{"kernel":"SOR","size":"tiny","mode":"slipstream","cmps":2}]}`
	body := strings.Repeat(" ", service.MaxRequestBytes+1-len(batch)) + batch
	for _, base := range []string{cl.backends[0].URL, cl.front.URL} {
		resp, err := http.Post(base+api.PathRun, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || er.Code != api.CodeBadRequest {
			t.Errorf("%s: HTTP %d code %q (%s), want 400 %q", base, resp.StatusCode, er.Code, er.Error, api.CodeBadRequest)
		}
	}
	if n := cl.servers[0].CounterValue("service.submissions"); n != 0 {
		t.Errorf("service.submissions = %d, want 0", n)
	}
}
