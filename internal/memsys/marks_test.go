package memsys

import (
	"fmt"
	"math/rand"
	"testing"
)

// zeroFrame reports whether l is the zero Line, the frame make and clear
// leave. It is reflect's IsZero made cheap enough to run on every frame
// after every step, under -race too; the unkeyed literal stops compiling
// when Line gains a field, so the check cannot miss one.
func zeroFrame(l *Line) bool {
	_ = Line{l.Addr, l.State, l.Transparent, l.SIMark, l.WrittenInCS, l.rec, l.FillDone, l.lru}
	return l.Addr == 0 && l.State == Invalid && !l.Transparent && !l.SIMark && !l.WrittenInCS &&
		l.rec == 0 && l.FillDone == 0 && l.lru == 0
}

// unmarkedFrames returns the index of every frame of st that is not zero
// although its set, in geometry g, is not marked: the frames Reset would
// leave dirty and ForEachValid would skip.
func unmarkedFrames(g geometry, st storage) []int {
	var bad []int
	for i := range *st.frames {
		set := i / g.assoc
		if st.marked[set>>6]&(1<<(set&63)) == 0 && !zeroFrame(&(*st.frames)[i]) {
			bad = append(bad, i)
		}
	}
	return bad
}

// checkMarks fails if any frame of c outside a marked set is not zero.
func checkMarks(t *testing.T, name string, c *Cache) {
	t.Helper()
	g := geometry{c.Sets(), c.Assoc()}
	if bad := unmarkedFrames(g, storage{c.frames, c.marked, c.recs}); len(bad) > 0 {
		t.Fatalf("%s: frames %v are written but their sets are not marked", name, bad)
	}
}

// TestFrameReuseKeepsGeometry releases a Table 1 L2 (4096 sets x 4 ways)
// whose even sets are full and builds an L2 of the same frame count as
// 8192 sets x 2 ways, then the first geometry again, and so on. Each cache
// must come back new. Storage returns only to its own geometry, whose set
// numbers its marks name: read as 8192 x 2, the mark of set 2k would name
// frames 4k and 4k+1, and leave frames 8k+2 and 8k+3 of the filled set 2k
// dirty.
func TestFrameReuseKeepsGeometry(t *testing.T) {
	const size = 1 << 20
	released := make(map[*[]Line]geometry)
	recorder := &System{Classify: true}
	for round, assoc := range []int{4, 2, 4, 2, 4} {
		c := NewCache(size, assoc, 64)
		g := geometry{c.Sets(), c.Assoc()}
		if g.sets*g.assoc != size/64 {
			t.Fatalf("round %d: %d x %d frames, want %d", round, g.sets, g.assoc, size/64)
		}
		if prev, ok := released[c.frames]; ok && prev != g {
			t.Fatalf("round %d: a %d x %d cache got storage released by a %d x %d cache", round, g.sets, g.assoc, prev.sets, prev.assoc)
		} else if !ok && round >= 2 {
			t.Fatalf("round %d: %d x %d cache did not get its geometry's released storage back", round, g.sets, g.assoc)
		}
		checkNew(t, fmt.Sprintf("round %d (%d x %d)", round, g.sets, g.assoc), c)
		c.Reset() // checkNew asked every set for a victim
		for set := 0; set < g.sets; set += 2 {
			for way := 0; way < g.assoc; way++ {
				addr := Addr((way*g.sets + set) << c.lineShift)
				l := c.Victim(addr)
				l.Addr, l.State = addr, Exclusive
				recorder.addRec(c, l, RoleR, false, 0)
				c.Touch(l)
			}
		}
		released[c.frames] = g
		c.release()
	}
}

// TestFrameReuseMatchesWholeClear drives caches of several geometries —
// one set, a partial last bitmap word under the modulo index, and several
// words — through random fills through Victim, evictions, clearLine,
// Touch, Reset, and release and reacquisition. After every step every
// written frame must lie in a marked set, and ForEachValid must visit
// exactly the valid frames a walk of the whole slice finds, in the same
// order. After every Reset and every reacquisition the cache must hold
// what a whole-slice clear leaves: only zero frames, no marks, an LRU
// clock at 0, and an empty record slab.
func TestFrameReuseMatchesWholeClear(t *testing.T) {
	for _, g := range []geometry{{1, 4}, {96, 3}, {256, 2}, {130, 1}} {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.sets, g.assoc, seed), func(t *testing.T) {
				checkFrameReuse(t, g, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func checkFrameReuse(t *testing.T, g geometry, rng *rand.Rand) {
	const lineSize = 64
	newCache := func() *Cache { return NewCache(g.sets*g.assoc*lineSize, g.assoc, lineSize) }
	c := newCache()
	if c.Sets() != g.sets || c.Assoc() != g.assoc {
		t.Fatalf("geometry %d x %d, want %d x %d", c.Sets(), c.Assoc(), g.sets, g.assoc)
	}
	// Fills open records in the slab, which clearLine leaves taken: only
	// Reset and reacquisition empty it.
	recorder := &System{Classify: true}
	// Addresses span four times the cache, so sets fill and evict.
	addr := func() Addr { return Addr(rng.Intn(4*g.sets*g.assoc)) * lineSize }
	wantClear := func(step int, what string) {
		t.Helper()
		for i := range c.lines {
			if !zeroFrame(&c.lines[i]) {
				t.Fatalf("step %d: after %s frame %d = %+v, want a zero frame", step, what, i, c.lines[i])
			}
		}
		for w, m := range c.marked {
			if m != 0 {
				t.Fatalf("step %d: after %s marked word %d = %#x, want 0", step, what, w, m)
			}
		}
		if c.clock != 0 {
			t.Fatalf("step %d: after %s LRU clock = %d, want 0", step, what, c.clock)
		}
		if len(c.recs) != 0 || c.freeRec != 0 {
			t.Fatalf("step %d: after %s the slab holds %d records, free chain %d, want none", step, what, len(c.recs), c.freeRec)
		}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(20); {
		case op < 9: // fill, evicting the victim if it is valid
			a := addr()
			l := c.Lookup(a)
			if l == nil {
				l = c.Victim(a)
				clearLine(l)
			}
			l.Addr, l.State = a, LineState(1+rng.Intn(2))
			l.Transparent, l.SIMark, l.WrittenInCS = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
			l.FillDone = int64(step)
			if rng.Intn(2) == 0 {
				recorder.addRec(c, l, RoleA, false, int64(step))
			}
			c.Touch(l)
		case op < 13: // invalidate a resident line
			if l := c.Lookup(addr()); l != nil {
				clearLine(l)
			}
		case op < 16: // touch a resident line
			if l := c.Lookup(addr()); l != nil {
				c.Touch(l)
			}
		case op < 17: // ask for a victim and leave it unfilled
			c.Victim(addr())
		case op < 18:
			c.Reset()
			wantClear(step, "Reset")
		case op < 19: // release and take the same storage back
			frames := c.frames
			c.release()
			c = newCache()
			if c.frames != frames {
				t.Fatalf("step %d: the cache did not get its released storage back", step)
			}
			wantClear(step, "reacquisition")
		default:
			var visited []*Line
			c.ForEachValid(func(l *Line) { visited = append(visited, l) })
			var want []*Line
			for i := range c.lines {
				if c.lines[i].State != Invalid {
					want = append(want, &c.lines[i])
				}
			}
			if len(visited) != len(want) {
				t.Fatalf("step %d: ForEachValid visited %d frames, a whole-slice walk finds %d", step, len(visited), len(want))
			}
			for i := range want {
				if visited[i] != want[i] {
					t.Fatalf("step %d: ForEachValid's visit %d is not the whole-slice walk's", step, i)
				}
			}
		}
		checkMarks(t, fmt.Sprintf("step %d", step), c)
	}
	c.release()
}
