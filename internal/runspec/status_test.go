package runspec

import (
	"context"
	"errors"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/obs"
)

// tinySpec returns a distinct tiny slipstream spec per seed so tests can
// build batches of unique configurations cheaply.
func tinySpec(cmps int) RunSpec {
	return RunSpec{Kernel: "SOR", Size: 0 /* tiny */, Mode: core.ModeSlipstream, CMPs: cmps}
}

// TestExecuteCancelAfterFirst pins Execute's cancellation contract:
// cancelling after the first spec completes keeps that spec's result and
// its Store, and starts none of the rest. No daemon depends on it now
// (slipsimd runs each flight directly); a canceled harness batch keeps
// what it finished in the memo and the run cache.
func TestExecuteCancelAfterFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stored := 0
	ex := &Executor{
		Workers: 1,
		// OnDone fires on the worker goroutine under the executor's lock as
		// soon as the first spec completes, so the cancellation
		// happens-before any later spec is picked up.
		OnDone: func(RunSpec, *core.Result, bool) { cancel() },
		Store:  func(RunSpec, *core.Result) { stored++ },
	}
	specs := []RunSpec{tinySpec(1), tinySpec(2), tinySpec(4)}
	results, err := ex.Execute(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results[0] == nil {
		t.Errorf("results[0] = nil, want the completed result")
	}
	if results[1] != nil || results[2] != nil {
		t.Errorf("results for not-run specs = %v, %v, want nil", results[1], results[2])
	}
	// The completed spec was stored before the cancel; nothing after it.
	if stored != 1 {
		t.Errorf("Store called %d times, want 1", stored)
	}
}

// TestExecuteCancelMidRun cancels from the Observe hook, which the
// executor invokes on the worker goroutine just before simulating, so the
// first spec is deterministically in flight when the context dies: its
// result must be discarded and never Stored.
func TestExecuteCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &Executor{Workers: 1}
	ex.Observe = func(RunSpec) []obs.Observer {
		cancel()
		return nil
	}
	ex.Store = func(sp RunSpec, _ *core.Result) {
		t.Errorf("Store(%v) called for a canceled batch", sp)
	}
	specs := []RunSpec{tinySpec(1), tinySpec(2)}
	results, err := ex.Execute(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results[0] != nil || results[1] != nil {
		t.Errorf("results = %v, want all nil after mid-run cancel", results)
	}
}

// TestExecuteDuplicatesShare verifies duplicate specs map to one
// shared result.
func TestExecuteDuplicatesShare(t *testing.T) {
	ex := &Executor{Workers: 2}
	a, b := tinySpec(1), tinySpec(2)
	results, err := ex.Execute(context.Background(), []RunSpec{a, b, a})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Errorf("results[%d] = nil, want a result", i)
		}
	}
	if results[0] != results[2] {
		t.Errorf("duplicate specs returned distinct results")
	}
	if results[0] == results[1] {
		t.Errorf("distinct specs shared one result")
	}
}
