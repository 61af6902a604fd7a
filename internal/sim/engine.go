// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Simulated processes (Proc) are coroutines
// driven by direct handoff: exactly one party holds control at any
// moment — the caller of Run, RunUntil or Step, or a single process — and
// whichever holds it runs the event loop itself, so simulations are fully
// deterministic and free of data races without locks. A process that
// blocks with another process's dispatch next suspends to the caller,
// which resumes that process.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// Monitor observes engine progress. It exists for runtime auditing
// (internal/audit): the engine calls Step once per executed event, so a
// monitor can cross-check clock monotonicity independently of the queue
// ordering that is supposed to guarantee it. Implementations must not
// mutate simulation state.
type Monitor interface {
	// Step reports that the clock advanced from prev to now and one event
	// ran at now. For an event that dispatches a process, Step is called
	// after any operation WaitThen left for that dispatch has run, and
	// before the process resumes.
	Step(prev, now int64)
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     int64
	seq     uint64
	events  eventQueue
	procs   []*Proc
	monitor Monitor

	// limit is the latest event time the current Run, RunUntil or Step
	// call may still execute; later events stay queued. next is the
	// process that control passes to next: the one the event just
	// executed dispatched, or the one a process suspended to switch to.
	limit int64
	next  *Proc

	// inOp is the process whose WaitThen operation is running, or nil. It
	// stays set if the operation panics, until the panic is named after it.
	inOp *Proc
}

// NewEngine returns an engine with the clock at zero, scheduling through
// a calendar queue.
func NewEngine() *Engine { return newEngine(newCalQueue()) }

// newEngine returns an engine scheduling through q. Tests pass the heap
// oracle here to check the calendar queue's order at engine level.
func newEngine(q eventQueue) *Engine { return &Engine{events: q} }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error that indicates a model bug, so it panics.
//
//simlint:hotpath event-queue hold path: every scheduled event is pushed through here
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < now %d", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// SetMonitor installs (or, with nil, removes) the engine's step monitor.
// The unmonitored path pays one nil check per event.
func (e *Engine) SetMonitor(m Monitor) { e.monitor = m }

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed. When the event dispatches a process, Step
// returns once that process reaches its next blocking point.
//
//simlint:hotpath single-step driver: benchmarks and step-wise callers run every event through here
func (e *Engine) Step() bool {
	defer e.recoverOp()
	// The event runs here rather than through advance so the single-event
	// path makes one queue call, not a peek and a pop.
	ev, ok := e.events.pop()
	if !ok {
		return false
	}
	prev := e.now
	e.now = ev.at
	ev.fn()
	if e.monitor != nil {
		e.monitor.Step(prev, ev.at)
	}
	if p := e.next; p != nil {
		// Step's one event has run, so p passes control straight back at
		// its next blocking point.
		e.next = nil
		e.limit = math.MinInt64
		e.handTo(p)
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() { e.RunUntil(math.MaxInt64) }

// RunUntil executes events with time <= deadline. It reports whether the
// queue drained (true) or the deadline was hit with events pending (false).
func (e *Engine) RunUntil(deadline int64) bool {
	defer e.recoverOp()
	e.limit = deadline
	if p := e.advance(); p != nil {
		e.handTo(p)
	}
	_, pending := e.events.peekTime()
	return !pending
}

// recoverOp turns a panic in a WaitThen operation that the caller of
// RunUntil or Step ran into a *Panic naming the operation's process. It
// recovers only while inOp is set, so any other panic passes through
// untouched.
func (e *Engine) recoverOp() {
	if p := e.inOp; p != nil {
		e.inOp = nil
		panic(&Panic{Proc: p.name, Value: recover(), Stack: debug.Stack()})
	}
}

// handTo gives control to process p on behalf of the caller of Run,
// RunUntil or Step. Each process it resumes runs until it suspends, having
// named the process to switch to, or ends, after which handTo runs the
// event loop on to the next dispatch. It returns once no event up to the
// call's limit is left.
func (e *Engine) handTo(p *Proc) {
	for p != nil {
		if _, live := p.resume(); !live {
			e.next = e.advance()
		}
		p, e.next = e.next, nil
	}
}

// advance executes events, wherever control is, until one dispatches a
// process, and returns that process. It returns nil when no event up to
// the current call's limit is left, and control belongs back with the
// caller of Run, RunUntil or Step.
//
//simlint:hotpath engine inner loop: every event of a Run or RunUntil call passes through here
func (e *Engine) advance() *Proc {
	for {
		t, ok := e.events.peekTime()
		if !ok || t > e.limit {
			return nil
		}
		ev, _ := e.events.pop()
		prev := e.now
		e.now = ev.at
		ev.fn()
		if e.monitor != nil {
			e.monitor.Step(prev, ev.at)
		}
		if p := e.next; p != nil {
			e.next = nil
			return p
		}
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.len() }

// Blocked returns the processes that have not finished and are parked:
// blocked in Park and not yet dispatched again. Once Run has drained the
// queue no wake can be pending, so a non-empty result then indicates
// simulated deadlock.
func (e *Engine) Blocked() []*Proc {
	var b []*Proc
	for _, p := range e.procs {
		if !p.done && p.parked {
			b = append(b, p)
		}
	}
	return b
}
