package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcBasicTiming(t *testing.T) {
	e := NewEngine()
	var trace []int64
	e.Go("p", func(p *Proc) {
		trace = append(trace, e.Now())
		p.Delay(10)
		trace = append(trace, e.Now())
		p.WaitUntil(100)
		trace = append(trace, e.Now())
		p.WaitUntil(50) // in the past: no-op
		trace = append(trace, e.Now())
	})
	e.Run()
	want := []int64{0, 10, 100, 100}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Delay(10)
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Delay(10)
			}
		})
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Process a was started first and must win every same-time tie.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var wokenAt int64 = -1
	p := e.Go("sleeper", func(p *Proc) {
		p.Park()
		wokenAt = e.Now()
	})
	e.Go("waker", func(q *Proc) {
		q.Delay(42)
		p.Wake(e.Now())
	})
	e.Run()
	if wokenAt != 42 {
		t.Fatalf("woken at %d, want 42", wokenAt)
	}
	if !p.Done() {
		t.Fatal("sleeper not done")
	}
}

func TestKillParked(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Park()
		reached = true // must never run
	})
	e.Go("killer", func(q *Proc) {
		q.Delay(5)
		p.Kill()
	})
	e.Run()
	if reached {
		t.Fatal("killed process continued past Park")
	}
	if !p.Done() || !p.Killed() {
		t.Fatalf("done=%v killed=%v, want true,true", p.Done(), p.Killed())
	}
}

func TestKillWaiting(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Delay(1000)
		reached = true
	})
	e.Go("killer", func(q *Proc) {
		q.Delay(5)
		p.Kill()
	})
	e.Run()
	if reached {
		t.Fatal("killed process continued past Delay")
	}
	if !p.Done() {
		t.Fatal("victim not done")
	}
	// The engine still drained (the stale wake event is a no-op).
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestBlockedDetectsDeadlock(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Park() // nobody wakes it
	})
	e.Run()
	b := e.Blocked()
	if len(b) != 1 || b[0].Name() != "stuck" {
		t.Fatalf("Blocked = %v, want [stuck]", b)
	}
}

func TestProcSpawnedMidRun(t *testing.T) {
	e := NewEngine()
	var trace []int64
	e.Go("parent", func(p *Proc) {
		p.Delay(10)
		e.Go("child", func(c *Proc) {
			c.Delay(5)
			trace = append(trace, e.Now())
		})
		p.Delay(20)
		trace = append(trace, e.Now())
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 15 || trace[1] != 30 {
		t.Fatalf("trace = %v, want [15 30]", trace)
	}
}

// stamp is one process resumption: which process ran, and when.
type stamp struct {
	name string
	at   int64
}

// clockLog is a Monitor recording the clock after every event.
type clockLog []int64

func (l *clockLog) Step(_, now int64) { *l = append(*l, now) }

// TestProcStepMatchesRun pins Step's one-event contract for processes: a
// Step that dispatches a process returns only once that process has
// reached its next blocking point, so stepping a run one event at a time
// gives the same trace and clock sequence as Run. The delays make both
// kinds of dispatch occur: a switch to the other process, and a process
// whose own wake is the next event.
func TestProcStepMatchesRun(t *testing.T) {
	build := func() (*Engine, *[]stamp) {
		e := NewEngine()
		trace := new([]stamp)
		body := func(d int64) func(p *Proc) {
			return func(p *Proc) {
				// One stamp per resumption: the first dispatch, then
				// after each of the three delays.
				for i := 0; i < 3; i++ {
					*trace = append(*trace, stamp{p.Name(), e.Now()})
					p.Delay(d)
				}
				*trace = append(*trace, stamp{p.Name(), e.Now()})
			}
		}
		e.Go("a", body(1))
		e.Go("b", body(5))
		return e, trace
	}

	run, ranTrace := build()
	var ranClocks clockLog
	run.SetMonitor(&ranClocks)
	run.Run()

	step, steppedTrace := build()
	var steppedClocks []int64
	for step.Step() {
		steppedClocks = append(steppedClocks, step.Now())
		// Every event here is a dispatch, and each resumption stamps
		// exactly once before blocking again or finishing.
		if got, want := len(*steppedTrace), len(steppedClocks); got != want {
			t.Fatalf("after step %d the trace has %d stamps, want %d: Step returned before the process blocked",
				want, got, want)
		}
	}

	if !reflect.DeepEqual(*steppedTrace, *ranTrace) {
		t.Errorf("stepped trace %v, Run trace %v", *steppedTrace, *ranTrace)
	}
	if !reflect.DeepEqual(steppedClocks, []int64(ranClocks)) {
		t.Errorf("stepped clocks %v, Run clocks %v", steppedClocks, ranClocks)
	}
	if len(*ranTrace) != 8 {
		t.Errorf("trace %v, want 8 stamps", *ranTrace)
	}
	if step.Step() {
		t.Error("Step on a drained engine reported an event")
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

// TestProcGoroutinesExit checks that a drained engine leaves no process
// goroutine behind: processes that finish, are killed while parked, and
// are killed while waiting all end their coroutines, each of which runs
// on a goroutine of its own.
func TestProcGoroutinesExit(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	procs := []*Proc{
		e.Go("finishes", func(p *Proc) { p.Delay(3) }),
		e.Go("parked", func(p *Proc) { p.Park() }),
		e.Go("waiting", func(p *Proc) { p.Delay(1000) }),
	}
	e.Go("killer", func(p *Proc) {
		p.Delay(5)
		procs[1].Kill()
		procs[2].Kill()
	})
	e.Run()
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("%s not done", p.Name())
		}
	}
	checkGoroutinesExit(t, before, "after Run")
}

// TestProcPanicReachesCaller checks that a process's panic reaches a
// recover in the caller of Run as a *Panic naming the process, with the
// stack it panicked on, and that the engine then still drains: a parked
// peer can be killed and unwinds, and no goroutine is left behind.
func TestProcPanicReachesCaller(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	peer := e.Go("peer", func(p *Proc) {
		p.Park()
		t.Error("killed peer returned from Park")
	})
	e.Go("bad", func(p *Proc) {
		p.Delay(5)
		panic("boom")
	})
	got := runRecovered(e)
	pv, ok := got.(*Panic)
	if !ok {
		t.Fatalf("Run panicked with %#v, want a *Panic", got)
	}
	if pv.Proc != "bad" || pv.Value != "boom" {
		t.Errorf("panic from process %q with %v, want bad and boom", pv.Proc, pv.Value)
	}
	if !strings.Contains(string(pv.Stack), "TestProcPanicReachesCaller") {
		t.Errorf("panic stack does not reach the process body:\n%s", pv.Stack)
	}
	if e.Now() != 5 {
		t.Errorf("panic surfaced at %d, want 5", e.Now())
	}
	peer.Kill()
	e.Run()
	if !peer.Done() {
		t.Fatal("killed peer not done after the drain")
	}
	checkGoroutinesExit(t, before, "after the drain")
}

// TestProcPanicInOpKillable checks that a panic in a WaitThen op names
// the op's process, with the stack at the op, whichever party runs the
// op: another process, the caller of Run once that process has ended, or
// the caller of Step. The process can still be killed: its dispatch was
// the op, so no dispatch of it is left, and Kill must schedule one.
func TestProcPanicInOpKillable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other int64 // when the other process ends; past 10, it runs the op
		step  bool  // drive the engine with Step rather than Run
	}{
		{"process runs op", 20, false},
		{"caller of Run runs op", 5, false},
		{"caller of Step runs op", 20, true},
	} {
		before := settledGoroutines()
		e := NewEngine()
		victim := e.Go("victim", func(p *Proc) {
			p.WaitThen(10, func() int64 { panic("op") })
			t.Error("killed victim returned from WaitThen")
		})
		e.Go("other", func(p *Proc) { p.Delay(tc.other) })
		drive := runRecovered
		if tc.step {
			drive = stepRecovered
		}
		got := drive(e)
		pv, ok := got.(*Panic)
		if !ok || pv.Proc != "victim" || pv.Value != "op" {
			t.Fatalf("%s: panicked with %T %v, want a *Panic from victim with op", tc.name, got, got)
		}
		if !strings.Contains(string(pv.Stack), "TestProcPanicInOpKillable") {
			t.Errorf("%s: panic stack does not reach the op:\n%s", tc.name, pv.Stack)
		}
		if e.Now() != 10 {
			t.Errorf("%s: panic surfaced at %d, want 10", tc.name, e.Now())
		}
		if victim.Done() {
			t.Fatalf("%s: victim done before it was killed", tc.name)
		}
		victim.Kill()
		e.Run()
		if !victim.Done() {
			t.Fatalf("%s: killed victim not done after the drain", tc.name)
		}
		checkGoroutinesExit(t, before, tc.name+": after the drain")
	}
}

// runRecovered runs e to the end and returns the value it panicked with,
// or nil.
func runRecovered(e *Engine) (v any) {
	defer func() { v = recover() }()
	e.Run()
	return nil
}

// stepRecovered steps e to the end and returns the value it panicked
// with, or nil.
func stepRecovered(e *Engine) (v any) {
	defer func() { v = recover() }()
	for e.Step() {
	}
	return nil
}

// waitThenScript builds an engine with two processes that issue the same
// schedule of blocking operations, each an op run at a wake time t. With
// fused set they issue them as WaitThen(t, op); otherwise as the reference
// WaitUntil(t) then WaitUntil(op()). Every op stamps the trace and
// schedules a side event, so event order and sequence numbers both show.
// The schedules tie the two processes at the same times, and include ops
// returning their own start time, both at a later t and at a t that is
// already now.
func waitThenScript(fused bool) (*Engine, *[]stamp) {
	e := NewEngine()
	trace := new([]stamp)
	body := func(waits, lats []int64) func(p *Proc) {
		return func(p *Proc) {
			for i := range waits {
				*trace = append(*trace, stamp{p.Name(), e.Now()})
				lat := lats[i]
				op := func() int64 {
					*trace = append(*trace, stamp{p.Name() + "/op", e.Now()})
					e.After(1, func() { *trace = append(*trace, stamp{p.Name() + "/side", e.Now()}) })
					return e.Now() + lat
				}
				t := e.Now() + waits[i]
				if fused {
					p.WaitThen(t, op)
				} else {
					p.WaitUntil(t)
					p.WaitUntil(op())
				}
			}
			*trace = append(*trace, stamp{p.Name(), e.Now()})
		}
	}
	e.Go("a", body([]int64{2, 0, 3, 1, 2}, []int64{4, 0, 0, 5, 1}))
	e.Go("b", body([]int64{2, 4, 0, 1, 2}, []int64{4, 0, 3, 5, 1}))
	return e, trace
}

// TestProcWaitThenMatchesWaitUntil pins WaitThen's contract: stepped
// event by event, it gives the same trace, clock and queue length as
// WaitUntil(t) followed by WaitUntil(op()), and Run gives the same trace
// and clock sequence as Step.
func TestProcWaitThenMatchesWaitUntil(t *testing.T) {
	fused, fusedTrace := waitThenScript(true)
	ref, refTrace := waitThenScript(false)
	steps := 0
	for {
		ok, refOK := fused.Step(), ref.Step()
		if ok != refOK {
			t.Fatalf("step %d: WaitThen engine stepped=%v, reference stepped=%v", steps, ok, refOK)
		}
		if !ok {
			break
		}
		steps++
		if fused.Now() != ref.Now() || fused.Pending() != ref.Pending() {
			t.Fatalf("step %d: WaitThen at %d with %d pending, reference at %d with %d pending",
				steps, fused.Now(), fused.Pending(), ref.Now(), ref.Pending())
		}
		if !reflect.DeepEqual(*fusedTrace, *refTrace) {
			t.Fatalf("step %d: WaitThen trace %v, reference trace %v", steps, *fusedTrace, *refTrace)
		}
	}
	// Per process: a stamp, an op stamp and a side stamp for each of the
	// five operations, and a final stamp.
	if len(*fusedTrace) != 2*(5*3+1) {
		t.Errorf("trace %v: want %d stamps", *fusedTrace, 2*(5*3+1))
	}

	run, ranTrace := waitThenScript(true)
	var ranClocks clockLog
	run.SetMonitor(&ranClocks)
	run.Run()
	stepped, _ := waitThenScript(true)
	var steppedClocks clockLog
	stepped.SetMonitor(&steppedClocks)
	for stepped.Step() {
	}
	if !reflect.DeepEqual(*ranTrace, *fusedTrace) {
		t.Errorf("Run trace %v, stepped trace %v", *ranTrace, *fusedTrace)
	}
	if !reflect.DeepEqual(ranClocks, steppedClocks) || len(ranClocks) != steps {
		t.Errorf("Run clocks %v, stepped clocks %v (%d steps)", ranClocks, steppedClocks, steps)
	}
}

// TestProcWaitThenKilled checks that a process killed before its wake
// time unwinds at that time without running op, and that its goroutine
// exits.
func TestProcWaitThenKilled(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	ran := false
	victim := e.Go("victim", func(p *Proc) {
		p.WaitThen(100, func() int64 { ran = true; return 200 })
		t.Error("killed process returned from WaitThen")
	})
	e.Go("killer", func(p *Proc) {
		p.Delay(5)
		victim.Kill()
	})
	e.RunUntil(99)
	if victim.Done() {
		t.Fatal("killed process unwound before its wake time")
	}
	e.RunUntil(100)
	if !victim.Done() {
		t.Fatal("killed process did not unwind at its wake time")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after the unwind, want 0", e.Pending())
	}
	if ran {
		t.Fatal("op ran for a killed process")
	}
	checkGoroutinesExit(t, before, "after Run")
}

// TestProcWaitThenResumesInSameEvent checks that an op returning a time no
// later than its own start resumes the process within the op's event: no
// further dispatch is scheduled or executed.
func TestProcWaitThenResumesInSameEvent(t *testing.T) {
	for _, ret := range []int64{7, 10} {
		e := NewEngine()
		var clocks clockLog
		e.SetMonitor(&clocks)
		e.Go("p", func(p *Proc) {
			p.WaitThen(10, func() int64 { return ret })
			if e.Now() != 10 || e.Pending() != 0 || len(clocks) != 2 {
				t.Errorf("op returned %d: resumed at %d with %d pending after %d events, want 10, 0 and 2",
					ret, e.Now(), e.Pending(), len(clocks))
			}
		})
		e.Run()
	}
}

// TestProcWaitThenNowRunsInline checks that WaitThen with a time not after
// now runs op at once on the calling process, ahead of other events at
// the same time, and then waits until the time op returns.
func TestProcWaitThenNowRunsInline(t *testing.T) {
	for _, at := range []int64{3, 5} {
		e := NewEngine()
		var trace []stamp
		e.Go("p", func(p *Proc) {
			p.Delay(5)
			e.Go("q", func(*Proc) { trace = append(trace, stamp{"q", e.Now()}) })
			p.WaitThen(at, func() int64 {
				trace = append(trace, stamp{"op", e.Now()})
				return e.Now() + 4
			})
			trace = append(trace, stamp{"p", e.Now()})
		})
		e.Run()
		want := []stamp{{"op", 5}, {"q", 5}, {"p", 9}}
		if !reflect.DeepEqual(trace, want) {
			t.Errorf("WaitThen(%d) at 5: trace %v, want %v", at, trace, want)
		}
	}
}
