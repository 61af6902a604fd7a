package memsys

import (
	"reflect"
	"testing"

	"slipstream/internal/sim"
)

// fillEveryFrame makes every frame of c a valid, exclusively held line
// carrying every per-line mark and an open classification record, touched
// by the companion stream.
func fillEveryFrame(c *Cache) {
	recorder := &System{Classify: true}
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Assoc(); way++ {
			addr := Addr((way*c.Sets() + set) << c.lineShift)
			l := c.Victim(addr)
			*l = Line{
				Addr: addr, State: Exclusive, Transparent: true,
				SIMark: true, WrittenInCS: true, FillDone: 12345,
			}
			recorder.addRec(c, l, RoleA, true, 12345)
			recorder.recordTouch(c, l, RoleR, 12346)
			c.Touch(l)
		}
	}
}

// checkNew fails unless c is in exactly the state of a newly allocated
// cache: no valid line, a victim at way 0 of every set, no records in the
// slab and none on its free chain, and an LRU clock that starts over.
func checkNew(t *testing.T, name string, c *Cache) {
	t.Helper()
	if len(c.recs) != 0 || c.freeRec != 0 {
		t.Fatalf("%s: slab holds %d records, free chain %d, want none", name, len(c.recs), c.freeRec)
	}
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Assoc(); way++ {
			addr := Addr((way*c.Sets() + set) << c.lineShift)
			if c.Lookup(addr) != nil {
				t.Fatalf("%s: line %#x survived reuse", name, addr)
			}
			if v := c.Victim(addr); v != &c.set(addr)[0] {
				t.Fatalf("%s: victim for %#x is not way 0", name, addr)
			}
		}
	}
	c.ForEachValid(func(l *Line) { t.Fatalf("%s: ForEachValid visited %#x", name, l.Addr) })
	for i := range c.lines {
		if l := &c.lines[i]; !reflect.ValueOf(*l).IsZero() {
			t.Fatalf("%s: frame %d = %+v, want a zero frame", name, i, *l)
		}
	}
	if c.clock != 0 {
		t.Fatalf("%s: LRU clock = %d, want 0", name, c.clock)
	}
	l := c.Victim(0)
	c.Touch(l)
	if l.lru != 1 {
		t.Fatalf("%s: first touch stamps %d, want 1", name, l.lru)
	}
}

// TestReleasedFramesComeBackNew fills every frame of a Table 1 L1 and L2,
// releases the system with a record open on every L2 frame but the first,
// whose record went to the free chain, and checks that the caches of the
// next system of that geometry are indistinguishable from newly allocated
// ones — the property that lets runs share frame storage without moving a
// result — and that a reused L2 got its slab's capacity back. The pool may
// hand back any released slice or none, so the test repeats until a frame
// slice was actually reused.
func TestReleasedFramesComeBackNew(t *testing.T) {
	p := DefaultParams(2)
	reused := false
	for attempt := 0; attempt < 50 && !reused; attempt++ {
		s, err := NewSystem(sim.NewEngine(), p)
		if err != nil {
			t.Fatal(err)
		}
		s.Classify = true
		released := make(map[*[]Line]bool)
		slabCap := make(map[*[]Line]int)
		for _, n := range s.Nodes {
			fillEveryFrame(n.L2)
			s.closeRecs(n, &n.L2.lines[0])
			if n.L2.freeRec == 0 {
				t.Fatal("closing a record left the free chain empty")
			}
			released[n.L2.frames] = true
			slabCap[n.L2.frames] = cap(n.L2.recs)
			for _, cpu := range n.CPUs {
				fillEveryFrame(cpu.L1)
				released[cpu.L1.frames] = true
			}
		}
		s.Release()

		s, err = NewSystem(sim.NewEngine(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range s.Nodes {
			if released[n.L2.frames] {
				reused = true
				if got, want := cap(n.L2.recs), slabCap[n.L2.frames]; got != want {
					t.Fatalf("reused L2 slab capacity %d, want the released %d", got, want)
				}
			}
			checkNew(t, "L2", n.L2)
			for _, cpu := range n.CPUs {
				reused = reused || released[cpu.L1.frames]
				checkNew(t, "L1", cpu.L1)
			}
		}
	}
	if !reused {
		t.Fatal("no released frame slice was reused in 50 attempts")
	}
}

// TestReleasedSystemIsDead checks that a released system's caches hold no
// frames, so a stray access panics instead of reading frames a later
// system owns, and that releasing twice returns nothing twice.
func TestReleasedSystemIsDead(t *testing.T) {
	s, err := NewSystem(sim.NewEngine(), DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	for _, c := range []*Cache{s.Nodes[0].L2, s.Nodes[0].CPUs[0].L1, s.Nodes[0].CPUs[1].L1} {
		if c.lines != nil || c.frames != nil {
			t.Fatal("released cache still holds frames")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("lookup in a released cache did not panic")
				}
			}()
			c.Lookup(0x40)
		}()
	}
}

// TestReleasedPagesComeBackEmpty marks directory entries at every home,
// releases the system, and checks that the next system of that geometry,
// which takes the same pages back, has none of them: only the entries it
// creates itself are present, Idle and empty, Peek finds no other marked
// line, and ForEach visits only the new entries.
func TestReleasedPagesComeBackEmpty(t *testing.T) {
	p := DefaultParams(3)
	s, err := NewSystem(sim.NewEngine(), p)
	if err != nil {
		t.Fatal(err)
	}
	var marked []Addr
	for i := 0; i < 2*p.Nodes*(1<<dirPageShift); i += 5 {
		line := Addr(i * p.LineSize)
		e := s.Home(line).Dir.Entry(line)
		e.State, e.Owner = DirExclusive, i%p.Nodes
		e.AddSharer(i % p.Nodes)
		e.AddFuture((i + 1) % p.Nodes)
		marked = append(marked, line)
	}
	released := make(map[*dirPage]bool)
	for _, n := range s.Nodes {
		for _, pg := range n.Dir.pages {
			released[pg] = true
		}
	}
	s.Release()

	s, err = NewSystem(sim.NewEngine(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Create the first entry of each page at every home, which takes the
	// released pages back.
	fresh := make(map[Addr]bool)
	for page := 0; page < 2; page++ {
		for home := 0; home < p.Nodes; home++ {
			line := Addr(((page<<dirPageShift)*p.Nodes + home) * p.LineSize)
			e := s.Home(line).Dir.Entry(line)
			if *e != (DirEntry{present: true}) {
				t.Fatalf("new entry %#x = %+v, want Idle and empty", line, *e)
			}
			fresh[line] = true
		}
	}
	for _, n := range s.Nodes {
		if len(n.Dir.pages) != 2 {
			t.Fatalf("node %d holds %d pages, want 2", n.ID, len(n.Dir.pages))
		}
		for i, pg := range n.Dir.pages {
			if !released[pg] {
				t.Fatalf("node %d: page %d is not a released page", n.ID, i)
			}
		}
	}
	for _, line := range marked {
		if e := s.Home(line).Dir.Peek(line); e != nil && !fresh[line] {
			t.Fatalf("released entry %#x survived reuse: %+v", line, *e)
		}
	}
	for _, n := range s.Nodes {
		n.Dir.ForEach(func(line Addr, e *DirEntry) {
			if !fresh[line] {
				t.Fatalf("ForEach visited %#x, which this system never created", line)
			}
		})
	}
}
