package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
)

// tinySpec returns a distinct, fast slipstream spec per CMP count.
func tinySpec(cmps int) runspec.RunSpec {
	return runspec.RunSpec{Kernel: "SOR", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: cmps}
}

// gate installs a test hook that reports each flight the moment it turns
// running and holds it there until release is closed.
func gate(s *Server) (started chan runspec.RunSpec, release chan struct{}) {
	started = make(chan runspec.RunSpec, 16)
	release = make(chan struct{})
	s.runStarted = func(sp runspec.RunSpec) {
		started <- sp
		<-release
	}
	return started, release
}

// await waits for a's flight, if it has one, and returns the encoded
// result and the error it was answered with.
func await(a answer) ([]byte, error) {
	if a.f == nil {
		return a.res, nil
	}
	<-a.f.done
	return a.f.res, a.f.err
}

func postRun(t *testing.T, url string, req api.RunRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDrainFinishesAcceptedRejectsNew pins the graceful-drain contract:
// a drain started mid-batch lets the running job and the queued job
// complete, answers their waiters, rejects new submissions with 503, and
// leaves only complete verified entries in the run cache.
func TestDrainFinishesAcceptedRejectsNew(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Cache: cache})
	started, release := gate(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA, specB := tinySpec(1), tinySpec(2)
	batchDone := make(chan *http.Response, 1)
	go func() {
		batchDone <- postRun(t, ts.URL, api.RunRequest{Specs: []runspec.RunSpec{specA, specB}})
	}()

	<-started // specA running (gated), specB queued
	s.StartDrain()

	// New submissions are turned away while accepted work continues.
	resp := postRun(t, ts.URL, api.RunRequest{Specs: []runspec.RunSpec{tinySpec(4)}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: HTTP %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
	resp.Body.Close()

	var health api.Health
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "draining" {
		t.Errorf("health.Status = %q during drain, want %q", health.Status, "draining")
	}

	close(release)
	<-started // specB runs to completion too (accepted before the drain)

	batchResp := <-batchDone
	defer batchResp.Body.Close()
	if batchResp.StatusCode != http.StatusOK {
		t.Fatalf("accepted batch: HTTP %d, want 200", batchResp.StatusCode)
	}
	var rr api.RunResponse
	if err := json.NewDecoder(batchResp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 2 || rr.Results[0] == nil || rr.Results[1] == nil {
		t.Fatalf("accepted batch results = %+v, want 2 complete results", rr.Results)
	}

	s.Wait() // workers exit once the accepted backlog drains

	// The cache holds exactly the two completed runs — atomically written,
	// loadable, no partial or temporary files.
	if n := cache.Len(); n != 2 {
		t.Errorf("cache.Len() = %d after drain, want 2", n)
	}
	for _, sp := range []runspec.RunSpec{specA, specB} {
		if _, ok, _ := cache.Load(sp); !ok {
			t.Errorf("cache.Load(%v) missed; drained run was not persisted completely", sp)
		}
	}
	if got := s.CounterValue("service.rejected.drain"); got != 1 {
		t.Errorf("service.rejected.drain = %d, want 1", got)
	}
	if got := s.CounterValue("run.count"); got != 2 {
		t.Errorf("run.count = %d, want 2", got)
	}
}

// TestAdmissionBackpressure pins queue-aware admission: fresh work beyond
// the queue bound is rejected whole-batch with 429 + Retry-After, while
// coalescing joins are always admitted because they consume no slot.
func TestAdmissionBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started, release := gate(s)
	defer func() {
		close(release)
		s.StartDrain()
		s.Wait()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	attA, err := s.submit([]runspec.RunSpec{tinySpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-started // A running; queue empty again

	if _, err := s.submit([]runspec.RunSpec{tinySpec(2)}); err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	// Queue full: a fresh spec is rejected...
	if _, err := s.submit([]runspec.RunSpec{tinySpec(4)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission err = %v, want ErrQueueFull", err)
	}
	// ...and over HTTP that is 429 with a Retry-After hint.
	resp := postRun(t, ts.URL, api.RunRequest{Specs: []runspec.RunSpec{tinySpec(8)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("HTTP status = %d, want %d", resp.StatusCode, http.StatusTooManyRequests)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 response missing Retry-After")
	}
	resp.Body.Close()

	// A join of the running spec needs no queue slot and is admitted.
	attJoin, err := s.submit([]runspec.RunSpec{tinySpec(1)})
	if err != nil {
		t.Fatalf("coalescing join rejected: %v", err)
	}
	if attJoin[0].f != attA[0].f {
		t.Errorf("join created a new flight instead of attaching")
	}
	if got := s.CounterValue("service.coalesced"); got != 1 {
		t.Errorf("service.coalesced = %d, want 1", got)
	}
	if got := s.CounterValue("service.rejected.queue"); got != 2 {
		t.Errorf("service.rejected.queue = %d, want 2", got)
	}
}

// TestValidationRejectsBeforeAdmission pins that a bad spec is refused
// with its validation error text and occupies no queue slot. A machine
// with a negative latency would schedule events in the past and panic
// the daemon if it were admitted, and one with a 1 TiB L2 would exhaust
// its memory.
func TestValidationRejectsBeforeAdmission(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		s.StartDrain()
		s.Wait()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	siWithoutTL := runspec.RunSpec{Kernel: "SOR", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 2,
		SelfInvalidate: true} // self-invalidation requires transparent loads
	pastNet := tinySpec(2)
	pastNet.Machine = memsys.DefaultParams(2)
	pastNet.Machine.NetTime = -500
	hugeL2 := tinySpec(2)
	hugeL2.Machine = memsys.DefaultParams(2)
	hugeL2.Machine.L2Size = 1 << 40 // 2^34 frames per node
	for _, tc := range []struct {
		bad  runspec.RunSpec
		want string
	}{
		{siWithoutTL, core.ErrSelfInvalidateNeedsTL.Error()},
		{pastNet, "NetTime = -500"},
		{hugeL2, "L2Size = 1099511627776"},
	} {
		resp := postRun(t, ts.URL, api.RunRequest{Specs: []runspec.RunSpec{tinySpec(1), tc.bad}})
		var er api.ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP status = %d, want 400", resp.StatusCode)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Error, tc.want) {
			t.Errorf("error %q does not carry the validation error %q", er.Error, tc.want)
		}
		if !strings.Contains(er.Error, "spec 1") {
			t.Errorf("error %q does not name the offending spec index", er.Error)
		}
	}
	// Nothing was admitted.
	if got := s.CounterValue("service.submissions"); got != 0 {
		t.Errorf("service.submissions = %d after rejected batches, want 0", got)
	}
}

// TestHardStopDiscardsLateResult pins the two checks a worker makes
// around a run, which core.Run cannot interrupt. A flight held running
// when Close comes still simulates, but its result is discarded, never
// stored, and its waiter gets 503 canceled; a flight still queued never
// starts. run.count counts the one simulation that ran.
func TestHardStopDiscardsLateResult(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 2, Cache: cache})
	started, release := gate(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA, specB := tinySpec(1), tinySpec(2)
	answered := make(chan *http.Response, 1)
	go func() {
		answered <- postRun(t, ts.URL, api.RunRequest{Specs: []runspec.RunSpec{specA}})
	}()
	<-started // specA running (gated)
	attB, err := s.submit([]runspec.RunSpec{specB})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-s.baseCtx.Done() // the hard stop has come while specA is held
	close(release)
	<-closed

	resp := <-answered
	var er api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || er.Code != api.CodeCanceled {
		t.Errorf("running flight's waiter: HTTP %d code %q, want 503 %q", resp.StatusCode, er.Code, api.CodeCanceled)
	}
	if _, err := await(attB[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("queued flight: err = %v, want context.Canceled", err)
	}
	select {
	case sp := <-started:
		t.Errorf("queued flight %v started after the hard stop", sp)
	default:
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("cache.Len() = %d after the hard stop, want 0", n)
	}
	for _, sp := range []runspec.RunSpec{specA, specB} {
		if _, ok, _ := cache.Load(sp); ok {
			t.Errorf("cache holds %v, finished after the hard stop", sp)
		}
	}
	if got := s.CounterValue("run.count"); got != 1 {
		t.Errorf("run.count = %d, want 1 (only the held flight ran)", got)
	}
	if got := s.CounterValue("service.jobs.canceled"); got != 2 {
		t.Errorf("service.jobs.canceled = %d, want 2", got)
	}
}

// TestRejectedBatchChangesNothing pins the all-or-nothing contract of
// admission: a batch answered 429 moves no counter but
// service.rejected.queue, and enters nothing in the flight table or the
// cache. With the worker held and the one queue slot taken, a batch of
// one store hit and one fresh spec is rejected whole.
func TestRejectedBatchChangesNothing(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	stored := tinySpec(8)
	res, err := stored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(stored, res); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 1, Cache: cache})
	started, release := gate(s)
	defer func() {
		close(release)
		s.StartDrain()
		s.Wait()
	}()

	if _, err := s.submit([]runspec.RunSpec{tinySpec(1)}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds spec 1
	if _, err := s.submit([]runspec.RunSpec{tinySpec(2)}); err != nil {
		t.Fatal(err)
	}

	metrics := func() string {
		var b strings.Builder
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.metrics.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := metrics()
	if _, err := s.submit([]runspec.RunSpec{stored, tinySpec(4)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission over a full queue: err = %v, want ErrQueueFull", err)
	}
	after := metrics()
	want := strings.Replace(before, "counter service.specs", "counter service.rejected.queue 1\ncounter service.specs", 1)
	if after != want {
		t.Errorf("metrics after a rejected batch:\n%s\nwant:\n%s", after, want)
	}
	if got := s.CounterValue("service.cache.miss"); got != 2 {
		t.Errorf("service.cache.miss = %d for 2 admitted flights, want 2", got)
	}
	s.mu.Lock()
	flights := len(s.flights)
	s.mu.Unlock()
	if flights != 2 {
		t.Errorf("flight table holds %d flights, want the 2 admitted", flights)
	}
	if n, size := cacheStats(s.cache); n != 0 || size != 0 {
		t.Errorf("cache holds %d results (%d bytes) after the rejection, want none", n, size)
	}
}

// TestServedSpecsAreNotRetained pins that what a daemon keeps does not
// grow with the distinct specs it serves: 2000 distinct tiny SYNTH specs,
// each simulated once and stored, leave an empty flight table and an
// empty cache, and every flight is collected once its waiter has the
// answer. The store alone remembers them.
func TestServedSpecsAreNotRetained(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cache: cache})
	defer func() {
		s.StartDrain()
		s.Wait()
	}()

	const n, batch = 2000, 50
	var collected atomic.Int64
	for i := 0; i < n; i += batch {
		specs := make([]runspec.RunSpec, batch)
		for j := range specs {
			specs[j] = runspec.RunSpec{Kernel: "SYNTH", Params: kernels.Params(fmt.Sprintf("seed=%d", i+j)),
				Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: 2}
		}
		att, err := s.submit(specs)
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range att {
			if a.f == nil {
				t.Fatalf("spec %d was answered without a flight", i+j)
			}
			if res, err := await(a); err != nil || res == nil {
				t.Fatalf("spec %d: err=%v res=%q, want a result", i+j, err, res)
			}
			runtime.SetFinalizer(a.f, func(*flight) { collected.Add(1) })
		}
	}
	if got := s.CounterValue("run.count"); got != n {
		t.Fatalf("run.count = %d, want %d", got, n)
	}
	if got := cache.Len(); got != n {
		t.Fatalf("store holds %d entries, want %d", got, n)
	}
	s.mu.Lock()
	flights := len(s.flights)
	s.mu.Unlock()
	if flights != 0 {
		t.Errorf("flight table holds %d flights after every spec was served, want 0", flights)
	}
	if entries, size := cacheStats(s.cache); entries != 0 || size != 0 {
		t.Errorf("cache holds %d results (%d bytes) of specs served once, want none", entries, size)
	}

	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d served flights collected; the daemon still references the rest", collected.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
