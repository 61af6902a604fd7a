//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// killedError is the panic value that unwinds a killed process.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

// Panic is what a panic in a process becomes when it reaches the caller
// of Run, RunUntil or Step. A panic in an operation WaitThen left is the
// operation's process's, whichever process or caller ran it. The
// coroutine that panicked may be gone by then, so Panic carries its
// stack, captured where the panic was recovered.
type Panic struct {
	Proc  string // the name given to Go; empty for a panic outside any process
	Value any    // the value the process panicked with
	Stack []byte // the stack at the panic, as debug.Stack formats it
}

func (p *Panic) Error() string {
	if p.Proc == "" {
		return fmt.Sprint(p.Value)
	}
	return fmt.Sprintf("process %s: %v", p.Proc, p.Value)
}

// Proc is a simulated process: a coroutine whose execution is interleaved
// with simulated time under direct handoff. All Proc methods except Kill
// and Wake must be called from the process itself.
type Proc struct {
	eng *Engine
	// resume runs p's coroutine until p suspends or ends; only the caller
	// of Run, RunUntil or Step calls it. suspend, bound when the coroutine
	// starts, gives control back to that caller.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	name    string
	done    bool
	parked  bool
	killed  bool

	// dispatchFn is the bound dispatch method, created once at Go so the
	// wait/wake hot paths (WaitUntil, WaitThen, Wake, Kill) schedule it
	// without allocating a fresh method value per call.
	dispatchFn func()

	// then is the operation WaitThen left for p's next dispatch to run in
	// place of resuming p, or nil.
	then func() int64
}

// Go starts a new simulated process running fn. The process begins at the
// current simulated time, after already-queued events at this time.
// Each process is an iter.Pull coroutine. The caller of Run, RunUntil or
// Step resumes it, and it suspends back to that caller, so exactly one
// party holds control at any moment and the interleaving is fully
// determined by the event queue. A process that never ends stays
// suspended; Kill ends one.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	//simlint:ignore hotpathalloc one process record per spawned task, amortized over its simulated lifetime
	p := &Proc{eng: e, name: name}
	p.dispatchFn = p.dispatch
	//simlint:ignore hotpathalloc one coroutine per spawned task, amortized over its simulated lifetime
	p.resume, _ = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		p.run(fn)
	})
	//simlint:ignore hotpathalloc process table is bounded by the spawned task count
	e.procs = append(e.procs, p)
	e.At(e.now, p.dispatchFn)
	return p
}

// run is the body of p's coroutine. Control reaches it through the
// coroutine's first resume rather than a call from the event loop, so it
// is a hot-path root of its own.
//
//simlint:hotpath process bodies: every simulated task operation runs under here, between handoffs
func (p *Proc) run(fn func(p *Proc)) {
	defer p.exit()
	p.checkKilled()
	fn(p)
}

// exit ends p's coroutine once fn has returned or unwound, and marks p
// done. A panic other than a kill goes on to the caller of Run, RunUntil
// or Step as a *Panic, naming p unless it came from a WaitThen op p ran
// for another process; otherwise the coroutine ends, and that caller runs
// the event loop on to the next process.
func (p *Proc) exit() {
	p.done = true
	p.parked = false
	if r := recover(); r != nil {
		if _, ok := r.(killedError); !ok {
			name := p.name
			if q := p.eng.inOp; q != nil {
				p.eng.inOp = nil
				name = q.name
			}
			panic(&Panic{Proc: name, Value: r, Stack: debug.Stack()})
		}
	}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill was called on the process.
func (p *Proc) Killed() bool { return p.killed }

// dispatch is the event that resumes p: it names p as the process that
// control passes to next. If WaitThen left an operation, dispatch runs it
// first, wherever the event loop is running, and resumes p only if the
// time the operation returns has already come; otherwise it schedules p's
// dispatch at that time. p counts as parked while the operation runs: if
// it panics, no dispatch of p is left, and Kill must schedule one. The
// engine's inOp names p meanwhile, so that the panic names p too.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	if op := p.then; op != nil {
		p.then = nil
		if !p.killed {
			p.parked = true
			p.eng.inOp = p
			t := op()
			p.eng.inOp = nil
			p.parked = false
			if t > p.eng.now {
				p.eng.At(t, p.dispatchFn)
				return
			}
		}
	}
	p.parked = false
	p.eng.next = p
}

// yield gives up control at a blocking point and returns when p is
// dispatched again. p runs the event loop itself: if p's own dispatch is
// the next to run, p continues without a switch; otherwise it records the
// process to switch to and suspends to the caller of Run, RunUntil or
// Step, which resumes that process.
func (p *Proc) yield() {
	if q := p.eng.advance(); q != p {
		p.eng.next = q
		p.suspend(struct{}{})
	}
	p.checkKilled()
}

func (p *Proc) checkKilled() {
	if p.killed {
		panic(killedError{})
	}
}

// WaitUntil blocks the process until absolute simulated time t.
// Waiting for a past time returns immediately.
func (p *Proc) WaitUntil(t int64) {
	if t <= p.eng.now {
		p.checkKilled()
		return
	}
	p.eng.At(t, p.dispatchFn)
	p.yield()
}

// WaitThen blocks the process until absolute simulated time t, runs op at
// t, and blocks it further until the time op returns. It behaves exactly
// as WaitUntil(t) followed by WaitUntil(op()) — the same events with the
// same sequence numbers — except that op runs as part of p's dispatch
// event at t, wherever the event loop is running, so p is not resumed in
// between. A process killed before t unwinds at t without running op. For
// t not after now, op runs at once in p itself.
func (p *Proc) WaitThen(t int64, op func() int64) {
	if t <= p.eng.now {
		p.checkKilled()
		p.WaitUntil(op())
		return
	}
	p.then = op
	p.eng.At(t, p.dispatchFn)
	p.yield()
}

// Delay blocks the process for d cycles.
func (p *Proc) Delay(d int64) { p.WaitUntil(p.eng.now + d) }

// Park blocks the process until another process or event calls Wake.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Wake schedules parked process p to resume at absolute time t. It is safe
// to call from any simulation context (an event callback or another
// process).
func (p *Proc) Wake(t int64) {
	p.eng.At(t, p.dispatchFn)
}

// Kill marks the process as killed and, if it is parked, wakes it so that
// it unwinds. The process's coroutine ends at its next blocking point.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.parked {
		p.eng.At(p.eng.now, p.dispatchFn)
	}
}
