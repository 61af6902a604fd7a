package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// drainEqual pushes the same schedule into a calendar queue and the
// reference heap and asserts byte-identical pop order, interleaving pops
// with pushes according to script: each step either pushes an event or
// pops one from both queues.
func drainEqual(t *testing.T, name string, script func(push func(at int64), pop func())) {
	t.Helper()
	p := newQueuePair()
	script(p.push, p.pop)
	if err := p.drain(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// queuePair drives a calendar queue and the reference heap with one
// schedule and keeps the first point where they disagree.
type queuePair struct {
	cal    *calQueue
	ref    *heapQueue
	seq    uint64
	popped int
	err    error
}

func newQueuePair() *queuePair { return &queuePair{cal: newCalQueue(), ref: &heapQueue{}} }

func (p *queuePair) push(at int64) {
	p.seq++
	p.cal.push(event{at: at, seq: p.seq})
	p.ref.push(event{at: at, seq: p.seq})
}

func (p *queuePair) pop() {
	ce, cok := p.cal.pop()
	he, hok := p.ref.pop()
	switch {
	case p.err != nil:
	case cok != hok:
		p.err = fmt.Errorf("pop %d: calendar ok=%t heap ok=%t", p.popped, cok, hok)
	case ce.at != he.at || ce.seq != he.seq:
		p.err = fmt.Errorf("pop %d: calendar (at=%d seq=%d) != heap (at=%d seq=%d)",
			p.popped, ce.at, ce.seq, he.at, he.seq)
	}
	p.popped++
}

// drain pops both queues empty and returns the first disagreement.
func (p *queuePair) drain() error {
	if p.err == nil && p.cal.len() != p.ref.len() {
		p.err = fmt.Errorf("len: calendar %d != heap %d", p.cal.len(), p.ref.len())
	}
	for p.ref.len() > 0 && p.err == nil {
		p.pop()
	}
	if _, ok := p.cal.pop(); ok && p.err == nil {
		p.err = fmt.Errorf("calendar not empty after heap drained")
	}
	return p.err
}

// handOn drains both queues, hands the calendar queue on as
// Engine.Release does and takes the next from newCalQueue, as the next
// engine would.
func (p *queuePair) handOn() {
	p.drain()
	p.cal.release()
	p.cal = newCalQueue()
}

// TestCalendarMatchesHeapRandom is the differential property test: seeded
// random event schedules (randomSchedule) must pop from the calendar
// queue in byte-identical order to the reference heap.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			drainEqual(t, fmt.Sprintf("seed%d", seed), func(push func(int64), pop func()) {
				randomSchedule(rng, push, pop)
			})
		})
	}
}

// randomSchedule drives push and pop with a random event schedule:
// monotone nondecreasing release times, bursts of same-cycle events (seq
// tie-breaks), occasional huge gaps, and interleaved pops simulating the
// engine's execute-while-scheduling pattern.
func randomSchedule(rng *rand.Rand, push func(int64), pop func()) {
	now := int64(0)
	pending := 0
	for step := 0; step < 5000; step++ {
		switch {
		case pending > 0 && rng.Intn(3) == 0:
			pop()
			pending--
		default:
			// Schedule relative to a drifting "now", as the engine does:
			// mostly short delays, sometimes same-cycle bursts, rarely
			// far-future jumps.
			switch rng.Intn(10) {
			case 0: // same-cycle burst
				for i := 0; i < 1+rng.Intn(8); i++ {
					push(now)
					pending++
				}
			case 1: // far future
				push(now + int64(rng.Intn(1_000_000)))
				pending++
			default:
				push(now + int64(rng.Intn(400)))
				pending++
			}
		}
		if rng.Intn(5) == 0 {
			now += int64(rng.Intn(50))
		}
	}
}

// FuzzCalendarQueue drives the calendar queue and the reference heap with
// one script of pushes and pops and requires identical pop order, as
// drainEqual checks. A script is a sequence of uvarints: 0 pops, and v > 0
// pushes an event at the previous push's time plus the zigzag-decoded
// v-1, skipped if that leaves [0, 2^32]: far from overflow, and beyond the
// seeds' farthest pushes, which stay below 2^29. The seeds are the
// schedules of TestCalendarMatchesHeapRandom and
// TestCalendarRotationResizeFuzz.
func FuzzCalendarQueue(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		f.Add(recordSchedule(randomSchedule, rand.New(rand.NewSource(seed)), 1))
	}
	for seed := int64(0); seed < 30; seed++ {
		f.Add(recordSchedule(rotationSchedule, rand.New(rand.NewSource(seed^0x5eed)), 1))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		drainEqual(t, "fuzz", func(push func(int64), pop func()) {
			replaySchedule(script, push, pop, nil)
		})
	})
}

// FuzzCalendarQueueHandOn is FuzzCalendarQueue across engines: a script
// may also drain both queues, hand the calendar queue on and take the next
// one (queuePair.handOn), so later schedules run on the bucket array and
// capacity that earlier ones left. Its uvarints are 0 to pop, 1 to hand
// on, and v > 1 to push at the previous push's time plus the
// zigzag-decoded v-2; that time restarts at 0 after a hand-on, as a new
// engine's clock does. The seeds join three schedules of the other
// target's kinds with hand-ons.
func FuzzCalendarQueueHandOn(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := recordSchedule(rotationSchedule, rng, 2)
		script = append(script, 1)
		script = append(script, recordSchedule(randomSchedule, rng, 2)...)
		script = append(script, 1)
		script = append(script, recordSchedule(rotationSchedule, rng, 2)...)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		p := newQueuePair()
		replaySchedule(script, p.push, p.pop, p.handOn)
		if err := p.drain(); err != nil {
			t.Fatalf("after %d pops: %v", p.popped, err)
		}
	})
}

// recordSchedule encodes the pushes and pops schedule makes as a script
// whose first ops uvarints are operations (0 pops), as replaySchedule
// reads it.
func recordSchedule(schedule func(*rand.Rand, func(int64), func()), rng *rand.Rand, ops uint64) []byte {
	var script []byte
	prev := int64(0)
	push := func(at int64) {
		d := at - prev
		script = binary.AppendUvarint(script, uint64(d<<1^d>>63)+ops)
		prev = at
	}
	pop := func() { script = append(script, 0) }
	schedule(rng, push, pop)
	return script
}

// replaySchedule decodes a script into pushes, pops and, when handOn is
// not nil, hand-ons: FuzzCalendarQueue's format when handOn is nil, and
// FuzzCalendarQueueHandOn's otherwise.
func replaySchedule(script []byte, push func(int64), pop func(), handOn func()) {
	const horizon = 1 << 32
	ops := uint64(1)
	if handOn != nil {
		ops = 2
	}
	prev := int64(0)
	for len(script) > 0 {
		v, n := binary.Uvarint(script)
		if n <= 0 {
			return
		}
		script = script[n:]
		switch {
		case v == 0:
			pop()
			continue
		case v < ops:
			handOn()
			prev = 0
			continue
		}
		d := int64((v-ops)>>1) ^ -int64((v-ops)&1)
		if d < -prev || d > horizon-prev {
			continue
		}
		prev += d
		push(prev)
	}
}

// TestCalendarMatchesHeapTable pins adversarial shapes directly: all-equal
// times, strictly decreasing insertion, resize-triggering loads, and the
// peek-then-early-push pattern that forces a cursor rewind.
func TestCalendarMatchesHeapTable(t *testing.T) {
	cases := []struct {
		name   string
		script func(push func(int64), pop func())
	}{
		{"all-same-cycle", func(push func(int64), pop func()) {
			for i := 0; i < 300; i++ {
				push(42)
			}
		}},
		{"descending", func(push func(int64), pop func()) {
			for i := 300; i > 0; i-- {
				push(int64(i * 7))
			}
		}},
		{"grow-then-shrink", func(push func(int64), pop func()) {
			for i := 0; i < 2000; i++ {
				push(int64(i % 97))
			}
			for i := 0; i < 1990; i++ {
				pop()
			}
			for i := 0; i < 50; i++ {
				push(int64(100 + i))
			}
		}},
		{"sparse-then-dense", func(push func(int64), pop func()) {
			push(10_000_000)
			pop() // fast-forwards the cursor far ahead
			for i := 0; i < 64; i++ {
				push(10_000_000 + int64(i))
			}
		}},
		{"interleaved-ties", func(push func(int64), pop func()) {
			for i := 0; i < 100; i++ {
				push(int64(i / 10)) // ten events per cycle
				if i%3 == 2 {
					pop()
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { drainEqual(t, c.name, c.script) })
	}
}

// TestCalendarPeekRewind pins the cursor-rewind contract: peeking at a
// far-future event fast-forwards the cursor, and a subsequent push of an
// earlier (but still legal) event must still pop first.
func TestCalendarPeekRewind(t *testing.T) {
	q := newCalQueue()
	q.push(event{at: 1_000_000, seq: 1})
	if at, ok := q.peekTime(); !ok || at != 1_000_000 {
		t.Fatalf("peekTime = %d, %t; want 1000000, true", at, ok)
	}
	q.push(event{at: 5, seq: 2})
	q.push(event{at: 900, seq: 3})
	want := []struct {
		at  int64
		seq uint64
	}{{5, 2}, {900, 3}, {1_000_000, 1}}
	for i, w := range want {
		ev, ok := q.pop()
		if !ok || ev.at != w.at || ev.seq != w.seq {
			t.Fatalf("pop %d = (at=%d seq=%d ok=%t), want (at=%d seq=%d)", i, ev.at, ev.seq, ok, w.at, w.seq)
		}
	}
}

// TestEngineQueueKindsIdentical runs a process-level workload on the
// calendar queue and on the heap oracle and asserts identical completion
// traces — the engine-level differential check on top of the queue-level
// ones.
func TestEngineQueueKindsIdentical(t *testing.T) {
	runWorkload := func(q eventQueue) []string {
		e := newEngine(q)
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Delay(int64(1 + (i*7+j*13)%40))
					log = append(log, fmt.Sprintf("p%d step%d @%d", i, j, e.Now()))
				}
			})
		}
		e.Run()
		return log
	}
	cal := runWorkload(newCalQueue())
	heap := runWorkload(&heapQueue{})
	if len(cal) != len(heap) {
		t.Fatalf("trace lengths differ: calendar %d, heap %d", len(cal), len(heap))
	}
	for i := range cal {
		if cal[i] != heap[i] {
			t.Fatalf("traces diverge at %d: calendar %q, heap %q", i, cal[i], heap[i])
		}
	}
}

// TestHandedOnQueueStartsNew grows a queue to hundreds of buckets, leaves
// events pending and resets it, as Engine.Release does: the queue must be
// in a new queue's state, hold no event or fn reference in any bucket of
// its array, and keep the array it grew, so the next run reuses its
// capacity. It must then pop in the heap's order again.
func TestHandedOnQueueStartsNew(t *testing.T) {
	q := &calQueue{}
	q.reset()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		q.push(event{at: int64(i * 37 % 5000), seq: uint64(i + 1), fn: fn})
	}
	for i := 0; i < 300; i++ {
		q.pop()
	}
	grown := len(q.buckets)
	q.reset()

	fresh := &calQueue{}
	fresh.reset()
	if q.len() != 0 || len(q.buckets) != calMinBuckets || q.mask != fresh.mask ||
		q.shift != fresh.shift || q.cur != fresh.cur || q.top != fresh.top {
		t.Fatalf("reset queue: len %d, %d buckets, mask %d, shift %d, cur %d, top %d; a new one: 0, %d, %d, %d, %d, %d",
			q.len(), len(q.buckets), q.mask, q.shift, q.cur, q.top,
			len(fresh.buckets), fresh.mask, fresh.shift, fresh.cur, fresh.top)
	}
	if grown <= calMinBuckets || cap(q.buckets) < grown {
		t.Fatalf("reset kept a %d-bucket array of a %d-bucket ring", cap(q.buckets), grown)
	}
	all := q.buckets[:cap(q.buckets)]
	for i := range all {
		b := &all[i]
		if len(b.evs) != 0 || b.head != 0 {
			t.Fatalf("bucket %d holds %d events from head %d", i, len(b.evs), b.head)
		}
		for _, ev := range b.evs[:cap(b.evs)] {
			if ev.fn != nil {
				t.Fatalf("bucket %d keeps an fn reference", i)
			}
		}
	}

	p := &queuePair{cal: q, ref: &heapQueue{}}
	randomSchedule(rand.New(rand.NewSource(7)), p.push, p.pop)
	if err := p.drain(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineReleaseHandsQueueOn checks that Release hands the engine's
// queue to the next NewEngine and leaves the engine dead: scheduling on
// it panics, and a second Release lists nothing twice.
func TestEngineReleaseHandsQueueOn(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.At(int64(i), func() {})
	}
	e.Run()
	q := e.events.(*calQueue)
	e.Release()
	e.Release()
	if !panics(func() { e.At(e.Now(), func() {}) }) {
		t.Error("At on a released engine did not panic")
	}
	next := NewEngine()
	if next.events != eventQueue(q) {
		t.Fatal("NewEngine did not take the released engine's queue")
	}
	if again := NewEngine(); again.events == eventQueue(q) {
		t.Fatal("a queue released once went to two engines")
	}
	next.Release()
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestHandedOnQueuesMatchHeapConcurrently hands queues on between four
// goroutines at once, as concurrent runs do through Engine.Release and
// NewEngine: every schedule, on whichever queue it gets, must pop in the
// heap's order. Run it under the race detector.
func TestHandedOnQueuesMatchHeapConcurrently(t *testing.T) {
	const workers, rounds = 4, 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds && errs[w] == nil; r++ {
				rng := rand.New(rand.NewSource(int64(w*rounds + r)))
				p := newQueuePair()
				schedule := randomSchedule
				if r%2 == 1 {
					schedule = rotationSchedule
				}
				schedule(rng, p.push, p.pop)
				if err := p.drain(); err != nil {
					errs[w] = fmt.Errorf("round %d: %v", r, err)
				}
				p.cal.release()
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}
