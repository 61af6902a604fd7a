package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelQueue is the property-test oracle: a slice kept sorted by
// (at, seq) with plain insertion, correct by construction.
type modelQueue struct{ evs []event }

func (m *modelQueue) push(ev event) {
	i := len(m.evs)
	for i > 0 && eventLess(ev, m.evs[i-1]) {
		i--
	}
	m.evs = append(m.evs, event{})
	copy(m.evs[i+1:], m.evs[i:])
	m.evs[i] = ev
}

func (m *modelQueue) pop() (event, bool) {
	if len(m.evs) == 0 {
		return event{}, false
	}
	ev := m.evs[0]
	m.evs = m.evs[1:]
	return ev, true
}

// TestQueueOrderProperty is the implementation-agnostic ordering property:
// under randomized interleaved pushes and pops (pushes never in the past,
// as the engine guarantees), every eventQueue implementation — the
// reference heap and the calendar queue — pops the exact (cycle, seq)
// total order of the sorted-slice oracle, and its peekTime/len agree
// along the way.
func TestQueueOrderProperty(t *testing.T) {
	impls := []struct {
		name string
		mk   func() eventQueue
	}{
		{"heap", func() eventQueue { return &heapQueue{} }},
		{"calendar", func() eventQueue { return newCalQueue() }},
	}
	for _, im := range impls {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", im.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				q := im.mk()
				model := &modelQueue{}
				var seq uint64
				now := int64(0)
				check := func(step int) {
					if q.len() != len(model.evs) {
						t.Fatalf("step %d: len = %d, model %d", step, q.len(), len(model.evs))
					}
					at, ok := q.peekTime()
					if ok != (len(model.evs) > 0) {
						t.Fatalf("step %d: peekTime ok=%t, model pending %d", step, ok, len(model.evs))
					}
					if ok && at != model.evs[0].at {
						t.Fatalf("step %d: peekTime = %d, want %d", step, at, model.evs[0].at)
					}
				}
				for step := 0; step < 4000; step++ {
					if len(model.evs) > 0 && rng.Intn(3) == 0 {
						got, gok := q.pop()
						want, _ := model.pop()
						if !gok || got.at != want.at || got.seq != want.seq {
							t.Fatalf("step %d: pop (at=%d seq=%d ok=%t), want (at=%d seq=%d)",
								step, got.at, got.seq, gok, want.at, want.seq)
						}
						now = got.at
					} else {
						at := now
						switch rng.Intn(10) {
						case 0: // same-cycle tie
						case 1: // far future
							at += int64(rng.Intn(1_000_000))
						default:
							at += int64(rng.Intn(300))
						}
						seq++
						ev := event{at: at, seq: seq}
						q.push(ev)
						model.push(ev)
					}
					if step%37 == 0 {
						check(step)
					}
				}
				for len(model.evs) > 0 {
					got, gok := q.pop()
					want, _ := model.pop()
					if !gok || got.at != want.at || got.seq != want.seq {
						t.Fatalf("drain: pop (at=%d seq=%d ok=%t), want (at=%d seq=%d)",
							got.at, got.seq, gok, want.at, want.seq)
					}
				}
				if _, ok := q.pop(); ok {
					t.Fatal("queue not empty after model drained")
				}
			})
		}
	}
}

// TestCalendarRotationResizeFuzz runs the calendar queue's far-future and
// rotation edges (rotationSchedule) differentially against the reference
// heap.
func TestCalendarRotationResizeFuzz(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			drainEqual(t, fmt.Sprintf("rotation-seed%d", seed), func(push func(int64), pop func()) {
				rotationSchedule(rng, push, pop)
			})
		})
	}
}

// rotationSchedule drives push and pop with events scheduled beyond one
// full bucket-wheel rotation (so different "years" collide in one
// bucket), pushes landing exactly across resize boundaries, and the pop
// fast-forward over huge idle gaps.
func rotationSchedule(rng *rand.Rand, push func(int64), pop func()) {
	now := int64(0)
	pending := 0
	for step := 0; step < 3000; step++ {
		switch rng.Intn(12) {
		case 0, 1, 2: // pop a run, driving shrink resizes
			for i := 0; i < 1+rng.Intn(40) && pending > 0; i++ {
				pop()
				pending--
			}
		case 3: // burst push, driving growth resizes
			at := now + int64(rng.Intn(500))
			for i := 0; i < 20+rng.Intn(80); i++ {
				push(at + int64(rng.Intn(64)))
				pending++
			}
		case 4: // whole-rotation jumps: same bucket, different years
			base := now + int64(1+rng.Intn(4))*(1<<20)
			for i := 0; i < 1+rng.Intn(6); i++ {
				push(base + int64(i)*(1<<20))
				pending++
			}
		case 5: // far future, then backfill just above now
			push(now + int64(1+rng.Intn(1<<28)))
			push(now + int64(rng.Intn(16)))
			pending += 2
		default:
			push(now + int64(rng.Intn(400)))
			pending++
		}
		if rng.Intn(4) == 0 {
			now += int64(rng.Intn(200))
		}
	}
}

// TestCalendarRotationTable pins deterministic rotation shapes directly.
func TestCalendarRotationTable(t *testing.T) {
	cases := []struct {
		name   string
		script func(push func(int64), pop func())
	}{
		// All events hash to bucket 0 of the initial 16x16-cycle wheel:
		// the day walk must skip future years parked in the current bucket.
		{"year-collisions", func(push func(int64), pop func()) {
			for i := 0; i < 30; i++ {
				push(int64(i) * 256)
			}
			for i := 0; i < 25; i++ {
				pop()
			}
			for i := 0; i < 30; i++ {
				push(int64(30+i) * 256)
			}
		}},
		// Pop fast-forwards across a giant gap, then pushes rewind the
		// cursor below the new top repeatedly.
		{"gap-then-rewind", func(push func(int64), pop func()) {
			push(1 << 40)
			pop()
			for i := 0; i < 100; i++ {
				push(1<<40 + int64(i%7)*300)
				if i%5 == 4 {
					pop()
				}
			}
		}},
		// Straddle the grow boundary (size > 2*buckets) with events more
		// than one rotation apart, so the re-estimated width must keep
		// both sides ordered.
		{"resize-straddle", func(push func(int64), pop func()) {
			for i := 0; i < 33; i++ {
				push(int64(i))
			}
			push(1 << 30)
			for i := 0; i < 33; i++ {
				pop()
			}
		}},
		// Shrink down to the floor while a far-future event is pending.
		{"shrink-with-far-pending", func(push func(int64), pop func()) {
			for i := 0; i < 200; i++ {
				push(int64(i * 3))
			}
			push(1 << 35)
			for i := 0; i < 200; i++ {
				pop()
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { drainEqual(t, c.name, c.script) })
	}
}
