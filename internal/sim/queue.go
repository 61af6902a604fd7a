package sim

import "container/heap"

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
// engine's direct handoff only the goroutine holding control touches them.
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

// QueueKind selects the engine's event-queue implementation.
type QueueKind uint8

const (
	// QueueCalendar is the default: an adaptive calendar queue with O(1)
	// amortized push/pop and zero steady-state allocations.
	QueueCalendar QueueKind = iota
	// QueueHeap is the original container/heap binary heap, kept as the
	// differential-testing reference and benchmark baseline.
	QueueHeap
)

// newEventQueue builds the queue for a kind.
func newEventQueue(kind QueueKind) eventQueue {
	if kind == QueueHeap {
		return &heapQueue{}
	}
	return newCalQueue()
}

// heapQueue is the reference implementation: a binary heap via
// container/heap, exactly as the engine used before the calendar queue.
// Push and pop box events through any, so it allocates per operation; it
// exists to pin the calendar queue's pop order and to anchor benchmarks.
type heapQueue struct {
	h eventHeap
}

//simlint:ignore hotpathalloc legacy comparison queue: allocates per push by design; it exists to pin the calendar queue's order and anchor benchmarks
func (q *heapQueue) push(ev event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	return heap.Pop(&q.h).(event), true
}

func (q *heapQueue) peekTime() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *heapQueue) len() int { return len(q.h) }

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
