package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
)

// soakSpecs is the working set of the soak: every valid feature-flag
// combination of the tiny SOR kernel across machine sizes — 12 distinct
// simulator configurations.
func soakSpecs() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, cmps := range []int{1, 2, 4, 8} {
		for _, flags := range []struct{ tl, si bool }{{false, false}, {true, false}, {true, true}} {
			specs = append(specs, runspec.RunSpec{
				Kernel: "SOR", Size: kernels.Tiny, Mode: core.ModeSlipstream,
				CMPs: cmps, TransparentLoads: flags.tl, SelfInvalidate: flags.si,
			})
		}
	}
	return specs
}

// TestSoakZipfCluster is the tentpole proof: 1000 synthetic clients draw
// specs from a Zipf distribution (a hot head and a long tail, like a
// real sweep fleet) and submit them concurrently through the gateway of
// a 3-replica cluster. The assertions are the whole point of the
// sharding design:
//
//   - cluster-wide coalescing: the fleet's total run.count equals the
//     number of DISTINCT specs drawn — every duplicate, no matter which
//     client or when, coalesced or memo-hit on its home replica;
//   - correctness: every gateway-served result is byte-identical to the
//     same spec simulated locally with core.Run.
func TestSoakZipfCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-client soak")
	}
	cl := newCluster(t, 3, func(i int) service.Config {
		cache, err := runcache.Open(t.TempDir(), core.SimVersion)
		if err != nil {
			t.Fatal(err)
		}
		return service.Config{Workers: 4, QueueDepth: 64, Cache: cache}
	})

	specs := soakSpecs()
	// Local references, computed before the cluster sees anything.
	refs := make([][]byte, len(specs))
	for i, sp := range specs {
		res, err := sp.Run()
		if err != nil {
			t.Fatalf("local reference %v: %v", sp, err)
		}
		if refs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	// Deterministic Zipf draws, fixed before any goroutine starts: the
	// distribution skews hard toward spec 0, so coalescing and memoization
	// both get exercised, while the tail guarantees distinct-spec coverage.
	const clients = 1000
	zipf := rand.NewZipf(rand.New(rand.NewSource(20260807)), 1.3, 1, uint64(len(specs)-1))
	draws := make([]int, clients)
	distinct := make(map[int]bool)
	for i := range draws {
		draws[i] = int(zipf.Uint64())
		distinct[draws[i]] = true
	}

	c := cl.client()
	errs := make([]error, clients)
	mismatch := make([]bool, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Run(context.Background(), specs[draws[i]])
			if err != nil {
				errs[i] = err
				return
			}
			got, err := json.Marshal(res)
			if err != nil {
				errs[i] = err
				return
			}
			mismatch[i] = !bytes.Equal(got, refs[draws[i]])
		}(i)
	}
	wg.Wait()

	failed := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			failed++
			if failed <= 3 {
				t.Errorf("client %d (spec %d): %v", i, draws[i], errs[i])
			}
		}
		if mismatch[i] {
			t.Fatalf("client %d (spec %d): gateway result differs from local core.Run", i, draws[i])
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d clients failed", failed, clients)
	}

	// The fleet simulated each distinct drawn spec exactly once — the
	// cluster-wide coalescing invariant under real concurrency.
	if got, want := cl.simCount(), int64(len(distinct)); got != want {
		t.Errorf("fleet run.count = %d, want %d (distinct specs drawn)", got, want)
	}
	if got := cl.gateway.CounterValue("gateway.requests"); got != clients {
		t.Errorf("gateway.requests = %d, want %d", got, clients)
	}
	// Every spec landed on its one home replica; nothing was rehashed
	// (no replica went down) and nothing was rejected.
	for _, m := range []string{"gateway.rehash", "gateway.replica.down", "gateway.rejected.backpressure", "gateway.rejected.upstream"} {
		if got := cl.gateway.CounterValue(m); got != 0 {
			t.Errorf("%s = %d, want 0", m, got)
		}
	}
}
