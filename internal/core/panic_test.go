package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels/sor"
	"slipstream/internal/sim"
)

var errBoom = errors.New("boom")

// panicKernel is tiny SOR whose task 1 panics instead of sweeping, once
// the other tasks have had time to finish their first sweep and park at
// the barrier that waits for task 1.
type panicKernel struct{ *sor.Kernel }

func (k panicKernel) Task(c *core.Ctx) {
	if c.ID() == 1 {
		c.Compute(40000)
		panic(errBoom)
	}
	k.Kernel.Task(c)
}

func tinySOR() *sor.Kernel { return sor.New(sor.Config{N: 34, Iters: 2}) }

// TestTaskPanicIsAnError checks that a panic in a kernel's task makes Run
// return an error naming the run and wrapping a *sim.Panic with the
// process and its stack, in single and slipstream mode. Run kills and
// drains every process before it returns, so no goroutine is left behind,
// and the storage the panicked runs released gives a later run the same
// result as before.
func TestTaskPanicIsAnError(t *testing.T) {
	opts := core.Options{Mode: core.ModeSlipstream, ARSync: core.ZeroTokenGlobal, CMPs: 4}
	fresh, err := core.Run(opts, tinySOR())
	if err != nil {
		t.Fatal(err)
	}
	before := core.SettledGoroutines()
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeSlipstream} {
		res, err := core.Run(core.Options{Mode: mode, CMPs: 4}, panicKernel{tinySOR()})
		if res != nil || err == nil {
			t.Fatalf("%v: panicked run returned %v, %v; want an error", mode, res, err)
		}
		if want := "core: SOR/" + mode.String() + " on 4 CMPs panicked: "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%v: error %q, want prefix %q", mode, err, want)
		}
		var pv *sim.Panic
		if !errors.As(err, &pv) {
			t.Fatalf("%v: error %q carries no *sim.Panic", mode, err)
		}
		if pv.Value != errBoom {
			t.Errorf("%v: panic value %v, want %v", mode, pv.Value, errBoom)
		}
		if !strings.HasPrefix(pv.Proc, "task1") || !strings.Contains(err.Error(), pv.Proc) {
			t.Errorf("%v: error %q, panicked process %q: want task 1's process named", mode, err, pv.Proc)
		}
		if !strings.Contains(string(pv.Stack), "panicKernel") {
			t.Errorf("%v: panic stack does not reach the task:\n%s", mode, pv.Stack)
		}
	}
	core.CheckGoroutinesExit(t, before, "after the panicked runs")
	again, err := core.Run(opts, tinySOR())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, fresh) {
		t.Errorf("SOR after the panicked runs:\n%+v\nbefore them:\n%+v", again, fresh)
	}
}
