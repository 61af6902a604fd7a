package sim

// event is one pending engine event: a callback ordered by (at, seq).
type event struct {
	at  int64
	seq uint64
	fn  func()
}

// eventLess is the engine's total event order: time, then insertion
// sequence. Every queue implementation must pop in exactly this order.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the engine's scheduler: a priority queue of events ordered
// by (at, seq). Implementations are not safe for concurrent use; under the
// engine's direct handoff only the process or caller holding control
// touches them.
type eventQueue interface {
	// push inserts an event. The engine guarantees at >= the time of the
	// most recently popped event.
	push(ev event)
	// pop removes and returns the least event, reporting false when empty.
	pop() (event, bool)
	// peekTime returns the least pending event time without removing it,
	// reporting false when empty.
	peekTime() (int64, bool)
	// len returns the number of pending events.
	len() int
}
