package sim

import (
	"reflect"
	"runtime"
	"testing"
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

// TestProcGoroutinesExit checks that a drained engine leaves no process
// goroutine behind: processes that finish, are killed while parked, and
// are killed while waiting all end their goroutines once they have passed
// control on.
func TestProcGoroutinesExit(t *testing.T) {
	before := runtime.NumGoroutine()
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
	// An exiting goroutine may still be unwinding after its final send;
	// give it bounded chances to run.
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > before; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n != before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}
