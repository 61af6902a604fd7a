package service

// Regression tests for review findings on the distributed serving layer:
// the admission store probe must not hold the server mutex, is the only
// probe a submission makes unless a racing store has overtaken it, and
// gateway down-marking must not be poisoned by the caller's own context.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// blockingStore is a Store whose Load parks until unblock is closed,
// standing in for a cache whose storage hangs.
type blockingStore struct {
	unblock chan struct{}
	loads   atomic.Int64
}

func (b *blockingStore) Key(sp runspec.RunSpec) (string, error) {
	return runcache.KeyFor(core.SimVersion, sp)
}

func (b *blockingStore) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	b.loads.Add(1)
	<-b.unblock
	return nil, false, nil
}

func (b *blockingStore) Store(sp runspec.RunSpec, res *core.Result) error { return nil }

func (b *blockingStore) Len() int { return 0 }

// TestStoreProbeReleasesMutex pins the deadlock fix: a Store backend that
// hangs mid-Load (a stalled disk or network mount) must not stall the
// server mutex — health checks, metrics, and worker transitions all take
// it, so a probe under the lock froze the whole daemon.
func TestStoreProbeReleasesMutex(t *testing.T) {
	bs := &blockingStore{unblock: make(chan struct{})}
	s := New(Config{Workers: 1, Cache: bs})

	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		if _, err := s.submit([]runspec.RunSpec{tinySpec(2)}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for bs.loads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("store probe never started")
		}
		time.Sleep(time.Millisecond)
	}

	// With the probe parked, the mutex must still be acquirable.
	free := make(chan struct{})
	go func() {
		s.Idle()
		s.Draining()
		close(free)
	}()
	select {
	case <-free:
	case <-time.After(2 * time.Second):
		t.Fatal("server mutex held across the store probe")
	}

	close(bs.unblock)
	<-submitted
	s.Close()
}

// countingStore is a local directory cache that counts the Load and
// Store calls reaching it.
type countingStore struct {
	*runcache.Cache
	loads, stores atomic.Int64
}

func (c *countingStore) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	c.loads.Add(1)
	return c.Cache.Load(sp)
}

func (c *countingStore) Store(sp runspec.RunSpec, res *core.Result) error {
	c.stores.Add(1)
	return c.Cache.Store(sp, res)
}

// TestColdSpecProbesStoreOnce pins that admission makes the only store
// probe a submission gets: a cold submission loads once, simulates once
// and stores once. The flight leaves no memory behind, so the first
// repeat probes once more and the store answers it; that answer enters
// the cache, and later repeats never reach the store.
func TestColdSpecProbesStoreOnce(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Cache: cache}
	s := New(Config{Workers: 1, Cache: cs})
	defer func() {
		s.StartDrain()
		s.Wait()
	}()

	for i, want := range []struct {
		hit   bool
		loads int64
	}{{false, 1}, {true, 2}, {true, 2}} {
		att, err := s.submit([]runspec.RunSpec{tinySpec(2)})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := await(att[0]); err != nil || res == nil {
			t.Fatalf("submission %d: err=%v res=%q, want a result", i+1, err, res)
		}
		if att[0].hit != want.hit {
			t.Errorf("submission %d: hit=%t, want %t", i+1, att[0].hit, want.hit)
		}
		if got := cs.loads.Load(); got != want.loads {
			t.Errorf("after submission %d: %d store loads, want %d", i+1, got, want.loads)
		}
		if got := cs.stores.Load(); got != 1 {
			t.Errorf("after submission %d: %d store writes, want 1", i+1, got)
		}
		if got := s.CounterValue("run.count"); got != 1 {
			t.Errorf("after submission %d: run.count = %d, want 1", i+1, got)
		}
	}
	for name, want := range map[string]int64{"service.cache.miss": 1, "service.cache.hit": 1, "service.memo.hit": 1} {
		if got := s.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// heldStore is a local directory cache whose first Load, once it has its
// verdict, parks until release is closed: a probe that misses, then stays
// in flight while the rest of the daemon moves on.
type heldStore struct {
	*runcache.Cache
	loads         atomic.Int64
	held, release chan struct{}
}

func (h *heldStore) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	res, ok, err := h.Cache.Load(sp)
	if h.loads.Add(1) == 1 {
		close(h.held)
		<-h.release
	}
	return res, ok, err
}

// TestProbeRacingAStoreIsNotResimulated pins what keeps a spec simulated
// once now that a flight leaves the table when it publishes. Submission
// B's probe misses and is held; meanwhile submission A of the same spec
// probes, simulates, stores and publishes, so when B plans again the
// spec is in neither the table nor the cache, and B's probe is stale. B
// must probe again and take A's stored result, not simulate a second
// time.
func TestProbeRacingAStoreIsNotResimulated(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), core.SimVersion)
	if err != nil {
		t.Fatal(err)
	}
	hs := &heldStore{Cache: cache, held: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{Workers: 1, Cache: hs})
	defer func() {
		s.StartDrain()
		s.Wait()
	}()
	sp := tinySpec(2)

	answered := make(chan []answer, 1)
	go func() {
		att, err := s.submit([]runspec.RunSpec{sp})
		if err != nil {
			t.Errorf("submission B: %v", err)
		}
		answered <- att
	}()
	<-hs.held // B's probe has missed

	attA, err := s.submit([]runspec.RunSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := await(attA[0]); err != nil || res == nil || attA[0].hit {
		t.Fatalf("submission A: err=%v res=%q hit=%t, want a fresh result", err, res, attA[0].hit)
	}
	close(hs.release)
	attB := <-answered
	if attB == nil {
		return
	}
	res, err := await(attB[0])
	if err != nil || !bytes.Equal(res, attA[0].f.res) {
		t.Fatalf("submission B: err=%v, result equal to A's: %t", err, bytes.Equal(res, attA[0].f.res))
	}
	if !attB[0].hit {
		t.Errorf("submission B was not answered by the store")
	}
	if got := s.CounterValue("run.count"); got != 1 {
		t.Errorf("run.count = %d, want 1", got)
	}
	if got := hs.loads.Load(); got != 3 {
		t.Errorf("%d store loads, want 3: B, A, and B again", got)
	}
}

// TestReplicaDownClassification pins what may mark a replica down: real
// transport failures and draining answers, never the caller's own context
// ending, ordinary admission rejections or a malformed answer.
func TestReplicaDownClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"caller canceled", context.Canceled, false},
		{"caller deadline", context.DeadlineExceeded, false},
		{"transport-wrapped cancel", &url.Error{Op: "Post", URL: "http://replica", Err: context.Canceled}, false},
		{"backpressure answer", &client.APIError{StatusCode: 429, Code: api.CodeQueueFull}, false},
		{"sim failure answer", &client.APIError{StatusCode: 500, Code: api.CodeSimFailed}, false},
		{"malformed answer", fmt.Errorf("%w: result 0 is not a JSON object", client.ErrMalformed), false},
		{"draining answer", &client.APIError{StatusCode: 503, Code: api.CodeDraining}, true},
		{"connection refused", errors.New("dial tcp: connection refused"), true},
	}
	for _, tc := range cases {
		if got := replicaDown(tc.err); got != tc.want {
			t.Errorf("replicaDown(%s) = %t, want %t", tc.name, got, tc.want)
		}
	}
}
