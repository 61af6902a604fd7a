package memsys

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"slipstream/internal/sim"
)

// visible returns an entry's protocol state, without the present flag the
// directory keeps for itself.
func visible(e DirEntry) DirEntry {
	e.present = false
	return e
}

// TestDirectoryMatchesMapOracle drives a paged directory and a map with
// the same random sequence of Entry, Peek, sharer, owner and future-bit
// mutations, and ForEach, and requires them to agree at every step. The
// lines span several pages plus a far page, so new pages are taken while
// earlier entries are held: a pointer Entry returned must stay the entry
// for the whole run, and what is written through it must read back
// through Peek and ForEach.
func TestDirectoryMatchesMapOracle(t *testing.T) {
	const lineShift = 6
	for _, nodes := range []int{1, 3, 8} {
		for home := 0; home < nodes; home++ {
			nodes, home := nodes, home
			t.Run(fmt.Sprintf("nodes=%d/home=%d", nodes, home), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(nodes<<8 | home)))
				d := NewDirectory(home, lineShift, nodes)
				oracle := make(map[Addr]DirEntry)
				held := make(map[Addr]*DirEntry)
				// pick returns a line homed here: mostly in the first three
				// pages, sometimes in a far page that leaves a hole.
				pick := func() Addr {
					k := rng.Intn(3 << dirPageShift)
					if rng.Intn(16) == 0 {
						k = 40<<dirPageShift + rng.Intn(8)
					}
					return Addr(k*nodes+home) << lineShift
				}
				for op := 0; op < 6000; op++ {
					line := pick()
					e, created := held[line]
					switch r := rng.Intn(50); {
					case r < 12: // Entry creates or returns the one entry
						got := d.Entry(line)
						if created && got != e {
							t.Fatalf("op %d: Entry(%#x) moved from %p to %p", op, line, e, got)
						}
						if !created {
							if visible(*got) != (DirEntry{}) {
								t.Fatalf("op %d: new entry %#x = %+v, want Idle and empty", op, line, *got)
							}
							held[line] = got
							oracle[line] = DirEntry{}
						}
					case r < 22: // Peek sees exactly the created entries
						got := d.Peek(line)
						switch {
						case !created && got != nil:
							t.Fatalf("op %d: Peek(%#x) = %+v for a line never created", op, line, *got)
						case created && got != e:
							t.Fatalf("op %d: Peek(%#x) = %p, want %p", op, line, got, e)
						case created && visible(*got) != oracle[line]:
							t.Fatalf("op %d: Peek(%#x) = %+v, want %+v", op, line, visible(*got), oracle[line])
						}
					case r < 49: // write through a held pointer
						if !created {
							continue
						}
						o := oracle[line]
						n := rng.Intn(nodes)
						switch rng.Intn(5) {
						case 0:
							e.AddSharer(n)
							o.Sharers |= 1 << uint(n)
						case 1:
							e.RemoveSharer(n)
							o.Sharers &^= 1 << uint(n)
						case 2:
							e.State, e.Owner = DirExclusive, n
							o.State, o.Owner = DirExclusive, n
						case 3:
							e.AddFuture(n)
							o.Future |= 1 << uint(n)
						case 4:
							e.ClearFuture(n)
							e.State = DirShared
							o.Future &^= 1 << uint(n)
							o.State = DirShared
						}
						oracle[line] = o
					default: // ForEach visits the created entries in address order
						checkForEach(t, d, oracle, held)
					}
				}
				checkForEach(t, d, oracle, held)
			})
		}
	}
}

// checkForEach fails unless d.ForEach visits exactly the oracle's lines,
// in ascending order, each through the pointer Entry returned for it and
// holding the oracle's state.
func checkForEach(t *testing.T, d *Directory, oracle map[Addr]DirEntry, held map[Addr]*DirEntry) {
	t.Helper()
	want := make([]Addr, 0, len(oracle))
	for line := range oracle {
		want = append(want, line)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []Addr
	d.ForEach(func(line Addr, e *DirEntry) {
		got = append(got, line)
		if e != held[line] {
			t.Fatalf("ForEach: %#x visited at %p, Entry returned %p", line, e, held[line])
		}
		if visible(*e) != oracle[line] {
			t.Fatalf("ForEach: %#x = %+v, want %+v", line, visible(*e), oracle[line])
		}
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visit %d is %#x, want %#x", i, got[i], want[i])
		}
	}
}

// touchDirectories creates the entries of the first two pages' worth of
// lines at every home, so each directory holds two pages.
func touchDirectories(s *System) {
	for i := 0; i < 2*len(s.Nodes)*(1<<dirPageShift); i++ {
		line := Addr(i * s.P.LineSize)
		s.Home(line).Dir.Entry(line).AddSharer(i % len(s.Nodes))
	}
}

// TestStorageSurvivesGC releases a system, runs two garbage collections,
// and builds a system of the same geometry: it must get back every
// released frame slice and directory page, whatever the collector did in
// between. A sync.Pool frees what two GCs pass unused.
func TestStorageSurvivesGC(t *testing.T) {
	p := DefaultParams(4)
	s, err := NewSystem(sim.NewEngine(), p)
	if err != nil {
		t.Fatal(err)
	}
	touchDirectories(s)
	frames := make(map[*[]Line]bool)
	pages := make(map[*dirPage]bool)
	for _, n := range s.Nodes {
		frames[n.L2.frames] = true
		for _, cpu := range n.CPUs {
			frames[cpu.L1.frames] = true
		}
		for _, pg := range n.Dir.pages {
			pages[pg] = true
		}
	}
	s.Release()
	runtime.GC()
	runtime.GC()

	s, err = NewSystem(sim.NewEngine(), p)
	if err != nil {
		t.Fatal(err)
	}
	touchDirectories(s)
	for _, n := range s.Nodes {
		if !frames[n.L2.frames] {
			t.Errorf("node %d: L2 frames were not reused", n.ID)
		}
		for _, cpu := range n.CPUs {
			if !frames[cpu.L1.frames] {
				t.Errorf("cpu %d: L1 frames were not reused", cpu.ID)
			}
		}
		for i, pg := range n.Dir.pages {
			if !pages[pg] {
				t.Errorf("node %d: directory page %d was not reused", n.ID, i)
			}
		}
	}
	s.Release()
}
