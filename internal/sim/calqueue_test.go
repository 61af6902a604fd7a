package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// drainEqual pushes the same schedule into a calendar queue and the
// reference heap and asserts byte-identical pop order, interleaving pops
// with pushes according to script: each step either pushes an event or
// pops one from both queues.
func drainEqual(t *testing.T, name string, script func(push func(at int64), pop func())) {
	t.Helper()
	cal := newCalQueue()
	ref := &heapQueue{}
	var seq uint64
	popped := 0
	push := func(at int64) {
		seq++
		cal.push(event{at: at, seq: seq})
		ref.push(event{at: at, seq: seq})
	}
	pop := func() {
		ce, cok := cal.pop()
		he, hok := ref.pop()
		if cok != hok {
			t.Fatalf("%s: pop %d: calendar ok=%t heap ok=%t", name, popped, cok, hok)
		}
		if ce.at != he.at || ce.seq != he.seq {
			t.Fatalf("%s: pop %d: calendar (at=%d seq=%d) != heap (at=%d seq=%d)",
				name, popped, ce.at, ce.seq, he.at, he.seq)
		}
		popped++
	}
	script(push, pop)
	if cal.len() != ref.len() {
		t.Fatalf("%s: len: calendar %d != heap %d", name, cal.len(), ref.len())
	}
	for ref.len() > 0 {
		pop()
	}
	if _, ok := cal.pop(); ok {
		t.Fatalf("%s: calendar not empty after heap drained", name)
	}
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
		f.Add(recordSchedule(randomSchedule, rand.New(rand.NewSource(seed))))
	}
	for seed := int64(0); seed < 30; seed++ {
		f.Add(recordSchedule(rotationSchedule, rand.New(rand.NewSource(seed^0x5eed))))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		drainEqual(t, "fuzz", func(push func(int64), pop func()) {
			replaySchedule(script, push, pop)
		})
	})
}

// recordSchedule encodes the pushes and pops schedule makes as a
// FuzzCalendarQueue script.
func recordSchedule(schedule func(*rand.Rand, func(int64), func()), rng *rand.Rand) []byte {
	var script []byte
	prev := int64(0)
	push := func(at int64) {
		d := at - prev
		script = binary.AppendUvarint(script, uint64(d<<1^d>>63)+1)
		prev = at
	}
	pop := func() { script = append(script, 0) }
	schedule(rng, push, pop)
	return script
}

// replaySchedule decodes a FuzzCalendarQueue script into pushes and pops.
func replaySchedule(script []byte, push func(int64), pop func()) {
	const horizon = 1 << 32
	prev := int64(0)
	for len(script) > 0 {
		v, n := binary.Uvarint(script)
		if n <= 0 {
			return
		}
		script = script[n:]
		if v == 0 {
			pop()
			continue
		}
		d := int64((v-1)>>1) ^ -int64((v-1)&1)
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
