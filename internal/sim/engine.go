// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Simulated processes (Proc) are goroutines
// driven by strict handoff: exactly one goroutine — either the event loop
// or a single process — executes at any moment, so simulations are fully
// deterministic and free of data races without locks.
package sim

import "fmt"

// Monitor observes engine progress. It exists for runtime auditing
// (internal/audit): the engine calls Step after executing each event, so a
// monitor can cross-check clock monotonicity independently of the queue
// ordering that is supposed to guarantee it. Implementations must not
// mutate simulation state.
type Monitor interface {
	// Step reports that the clock advanced from prev to now and one event
	// ran at now.
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
}

// NewEngine returns an engine with the clock at zero, scheduling through
// the default calendar queue.
func NewEngine() *Engine { return NewEngineQueue(QueueCalendar) }

// NewEngineQueue returns an engine using the given event-queue
// implementation. All queue kinds pop in identical (time, sequence) order —
// pinned by differential tests — so the choice affects simulator speed
// only, never results. QueueHeap exists for those tests and benchmarks.
func NewEngineQueue(kind QueueKind) *Engine {
	return &Engine{events: newEventQueue(kind)}
}

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
// whether an event was executed.
//
//simlint:hotpath engine inner loop: every simulated event passes through here
func (e *Engine) Step() bool {
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
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline. It reports whether the
// queue drained (true) or the deadline was hit with events pending (false).
func (e *Engine) RunUntil(deadline int64) bool {
	for {
		t, ok := e.events.peekTime()
		if !ok {
			return true
		}
		if t > deadline {
			return false
		}
		e.Step()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.len() }

// Blocked returns the processes that have neither finished nor been killed
// but are parked with no pending wake event. A non-empty result after Run
// indicates simulated deadlock.
func (e *Engine) Blocked() []*Proc {
	var b []*Proc
	for _, p := range e.procs {
		if !p.done && p.parked {
			b = append(b, p)
		}
	}
	return b
}
