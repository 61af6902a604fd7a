package sim

import "container/heap"

// heapQueue is the test oracle for the calendar queue: a binary heap via
// container/heap, exactly as the engine scheduled before the calendar
// queue. Push and pop box events through any, so it allocates per
// operation; it exists to pin the calendar queue's pop order.
type heapQueue struct {
	h eventHeap
}

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
