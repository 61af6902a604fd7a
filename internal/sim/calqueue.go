package sim

import "math/bits"

// calQueue is a calendar queue (Brown 1988): pending events hash by time
// into a ring of "day" buckets of power-of-two width, and dequeueing walks
// the ring day by day, popping due events in (at, seq) order. Push and pop
// are O(1) amortized — each bucket holds the handful of events of one day,
// kept sorted by insertion from the back (new events are almost always the
// latest of their day) — and the structure reaches zero allocations in
// steady state: bucket slices keep their capacity when they drain, so a
// long simulation recycles the same backing arrays for every event.
//
// Determinism: the queue is a pure function of its push/pop sequence (the
// resize rule, width estimate, and cursor motion depend only on queue
// content), and pop order is byte-identical to the reference binary heap —
// pinned by the differential tests in calqueue_test.go.
type calQueue struct {
	buckets []calBucket
	mask    int     // len(buckets) - 1; len is a power of two
	shift   uint    // log2 of the bucket (day) width in cycles
	size    int     // pending events
	cur     int     // bucket index of the current day
	top     int64   // exclusive upper time bound of the current day
	scratch []event // resize staging, reused
}

// calBucket holds one day-ring slot: evs[head:] are the pending events,
// sorted ascending by (at, seq). head advances on pop; when the bucket
// drains, head and evs reset so the capacity is reused.
type calBucket struct {
	evs  []event
	head int
}

const (
	calMinBuckets = 16
	calInitShift  = 4  // 16-cycle days until the first resize refines it
	calMaxShift   = 20 // day width cap: 1M cycles
)

func newCalQueue() *calQueue {
	q := &calQueue{shift: calInitShift}
	q.setBuckets(calMinBuckets)
	q.setCursor(0)
	return q
}

func (q *calQueue) len() int { return q.size }

func (q *calQueue) width() int64 { return 1 << q.shift }

func (q *calQueue) setBuckets(n int) {
	//simlint:ignore hotpathalloc bucket-array sizing is amortized doubling; the steady-state hold is pinned zero-alloc dynamically
	q.buckets = make([]calBucket, n)
	q.mask = n - 1
}

// setCursor points the current day at the one containing time t.
func (q *calQueue) setCursor(t int64) {
	day := t >> q.shift
	q.cur = int(day) & q.mask
	q.top = (day + 1) << q.shift
}

// bucketFor returns the ring slot for time t.
func (q *calQueue) bucketFor(t int64) *calBucket {
	return &q.buckets[int(t>>q.shift)&q.mask]
}

func (q *calQueue) push(ev event) {
	if q.size == 0 || ev.at < q.top-q.width() {
		// Empty queue, or an event scheduled into a day the cursor already
		// passed (possible after peekTime fast-forwarded past idle days):
		// rewind the cursor so the day walk cannot skip it. Rewinding only
		// re-visits days, so pop order is unaffected.
		q.setCursor(ev.at)
	}
	b := q.bucketFor(ev.at)
	//simlint:ignore hotpathalloc bucket append is in place once capacity warms up; pinned zero-alloc dynamically
	evs := append(b.evs, ev)
	// Insert from the back: same-day events almost always arrive in order,
	// so this loop body rarely runs.
	i := len(evs) - 1
	for i > b.head && eventLess(ev, evs[i-1]) {
		evs[i] = evs[i-1]
		i--
	}
	evs[i] = ev
	b.evs = evs
	q.size++
	if q.size > 2*(q.mask+1) {
		q.resize((q.mask + 1) * 2)
	}
}

func (q *calQueue) pop() (event, bool) {
	if q.size == 0 {
		return event{}, false
	}
	// Walk the ring one day at a time. Events of one day all live in one
	// bucket, so at most one bucket holds due work per day, and within a
	// bucket the head is the least (at, seq).
	for range q.buckets {
		b := &q.buckets[q.cur]
		if b.head < len(b.evs) && b.evs[b.head].at < q.top {
			return q.take(b), true
		}
		q.cur = (q.cur + 1) & q.mask
		q.top += q.width()
	}
	// A whole year of empty days: fast-forward straight to the minimum
	// pending event instead of walking potentially enormous gaps.
	min := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.head == len(b.evs) {
			continue
		}
		if min < 0 || eventLess(b.evs[b.head], q.buckets[min].evs[q.buckets[min].head]) {
			min = i
		}
	}
	b := &q.buckets[min]
	q.setCursor(b.evs[b.head].at)
	return q.take(b), true
}

// take removes and returns the bucket's head event.
func (q *calQueue) take(b *calBucket) event {
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // drop the fn reference
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
	}
	q.size--
	if q.size < (q.mask+1)/2 && q.mask+1 > calMinBuckets {
		q.resize((q.mask + 1) / 2)
	}
	return ev
}

func (q *calQueue) peekTime() (int64, bool) {
	if q.size == 0 {
		return 0, false
	}
	// As pop, but the day walk may advance the cursor persistently: pushes
	// into passed days rewind it (see push), so skipping idle days here is
	// safe and keeps the common peek O(1).
	for range q.buckets {
		b := &q.buckets[q.cur]
		if b.head < len(b.evs) && b.evs[b.head].at < q.top {
			return b.evs[b.head].at, true
		}
		q.cur = (q.cur + 1) & q.mask
		q.top += q.width()
	}
	min := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.head == len(b.evs) {
			continue
		}
		if min < 0 || eventLess(b.evs[b.head], q.buckets[min].evs[q.buckets[min].head]) {
			min = i
		}
	}
	at := q.buckets[min].evs[q.buckets[min].head].at
	q.setCursor(at)
	return at, true
}

// resize rebuilds the ring with n buckets and re-estimates the day width
// from the spread of pending events, so bucket occupancy tracks the
// simulation's event density. Deterministic: both inputs are pure
// functions of queue content.
func (q *calQueue) resize(n int) {
	q.scratch = q.scratch[:0]
	var minAt, maxAt int64
	first := true
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, ev := range b.evs[b.head:] {
			//simlint:ignore hotpathalloc resize is amortized doubling, not the steady-state path
			q.scratch = append(q.scratch, ev)
			if first || ev.at < minAt {
				minAt = ev.at
			}
			if first || ev.at > maxAt {
				maxAt = ev.at
			}
			first = false
		}
	}
	if len(q.scratch) > 0 {
		gap := (maxAt - minAt) / int64(len(q.scratch))
		shift := uint(bits.Len64(uint64(gap)))
		if shift > calMaxShift {
			shift = calMaxShift
		}
		q.shift = shift
	}
	q.setBuckets(n)
	if len(q.scratch) > 0 {
		q.setCursor(minAt)
	} else {
		q.setCursor(0)
	}
	size := len(q.scratch)
	for j, ev := range q.scratch {
		b := q.bucketFor(ev.at)
		//simlint:ignore hotpathalloc resize is amortized doubling, not the steady-state path
		evs := append(b.evs, ev)
		i := len(evs) - 1
		for i > 0 && eventLess(ev, evs[i-1]) {
			evs[i] = evs[i-1]
			i--
		}
		evs[i] = ev
		b.evs = evs
		q.scratch[j] = event{} // drop the fn reference
	}
	q.size = size
}
