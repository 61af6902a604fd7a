package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// deadlockKernel waits on an event nobody signals.
type deadlockKernel struct{}

func (k *deadlockKernel) Name() string            { return "deadlock" }
func (k *deadlockKernel) Setup(p *Program)        {}
func (k *deadlockKernel) Verify(p *Program) error { return nil }
func (k *deadlockKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.WaitEvent(12345) // never signaled
	}
	c.Barrier()
}

func TestDeadlockIsDetected(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 2}, &deadlockKernel{})
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error does not mention deadlock: %v", err)
	}
}

// lopsidedKernel reaches different barrier counts per task — a kernel bug
// the runner must surface rather than hang on.
type lopsidedKernel struct{}

func (k *lopsidedKernel) Name() string            { return "lopsided" }
func (k *lopsidedKernel) Setup(p *Program)        {}
func (k *lopsidedKernel) Verify(p *Program) error { return nil }
func (k *lopsidedKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.Barrier()
	}
	// Everyone else returns without the barrier.
}

func TestMismatchedBarriersAreDetected(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 3}, &lopsidedKernel{})
	if err == nil {
		t.Fatal("mismatched barriers returned no error")
	}
}

// TestNegativeSyncOccIsAnError checks that Run rejects a negative
// synchronization occupancy with ErrSyncOcc. Simulated, it would schedule a
// barrier release in the past, a panic that Run could report only as a
// panicked run.
func TestNegativeSyncOccIsAnError(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 2, SyncOcc: -5000}, &sumKernel{n: 64})
	if !errors.Is(err, ErrSyncOcc) {
		t.Fatalf("Run with SyncOcc -5000 = %v, want ErrSyncOcc", err)
	}
}

// spinKernel burns simulated time forever.
type spinKernel struct{}

func (k *spinKernel) Name() string            { return "spin" }
func (k *spinKernel) Setup(p *Program)        {}
func (k *spinKernel) Verify(p *Program) error { return nil }
func (k *spinKernel) Task(c *Ctx) {
	for {
		c.Compute(1000000)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 1, MaxCycles: 5_000_000}, &spinKernel{})
	if err == nil {
		t.Fatal("runaway kernel returned no error")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("error does not mention the cycle budget: %v", err)
	}
}

func TestUnknownModeRejected(t *testing.T) {
	if _, err := Run(Options{Mode: Mode(99), CMPs: 2}, &deadlockKernel{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling, waiting at most a second: a goroutine an earlier test ended
// may still be exiting, and counting it would hide a leak of one.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// checkGoroutinesExit fails t if the goroutine count stays above before
// for five seconds. An exiting goroutine may still be unwinding after its
// final switch, so the count is polled until it falls back.
func checkGoroutinesExit(t *testing.T, before int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %s, %d before", n, after, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedRunsLeakNoGoroutines checks that a run that deadlocks, stops
// at mismatched barriers, or exceeds its cycle budget leaves no process
// goroutine behind, in single and slipstream mode: Run kills every
// unfinished process and drains the engine before it returns the error.
func TestFailedRunsLeakNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	for _, mode := range []Mode{ModeSingle, ModeSlipstream} {
		for _, tc := range []struct {
			name string
			opts Options
			k    Kernel
		}{
			{"deadlock", Options{CMPs: 2}, &deadlockKernel{}},
			{"mismatched-barriers", Options{CMPs: 3}, &lopsidedKernel{}},
			{"over-budget", Options{CMPs: 2, MaxCycles: 5_000_000}, &spinKernel{}},
			{"audited-deadlock", Options{CMPs: 2, Audit: true}, &deadlockKernel{}},
		} {
			opts := tc.opts
			opts.Mode = mode
			if _, err := Run(opts, tc.k); err == nil {
				t.Fatalf("%s/%v: failed run returned no error", tc.name, mode)
			}
		}
	}
	checkGoroutinesExit(t, before, "after the failed runs")
}
