package memsys

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"slipstream/internal/sim"
)

// TestCacheGeometry also pins which set index each geometry takes: the
// Table 1 L1 masks, while a 48 KB 2-way L1 — 384 sets, a legal
// wire-supplied machine — must fall back to % 384.
func TestCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		size, sets int
		modulo     bool
	}{{32 << 10, 256, false}, {48 << 10, 384, true}} {
		c := NewCache(tc.size, 2, 64)
		if c.Sets() != tc.sets || c.Assoc() != 2 || c.modulo != tc.modulo {
			t.Fatalf("%d bytes: geometry = %d sets x %d ways (modulo %v), want %dx2 (modulo %v)",
				tc.size, c.Sets(), c.Assoc(), c.modulo, tc.sets, tc.modulo)
		}
		// Lines one set count apart share a set; neighbours do not.
		wrap := Addr(tc.sets * 64)
		if &c.set(5 * 64)[0] != &c.set(wrap + 5*64)[0] || &c.set(5 * 64)[0] == &c.set(6 * 64)[0] {
			t.Errorf("%d bytes: set index does not wrap at %d sets", tc.size, tc.sets)
		}
	}
}

func TestCacheLRUVictim(t *testing.T) {
	c := NewCache(4*64, 4, 64) // one set, four ways
	for i := 0; i < 4; i++ {
		l := c.Victim(Addr(i * 64))
		l.Addr = Addr(i * 64)
		l.State = Shared
		c.Touch(l)
	}
	// Touch lines 0 and 1 again; victim must be line 2.
	c.Touch(c.Lookup(0))
	c.Touch(c.Lookup(64))
	v := c.Victim(Addr(4 * 64))
	if v.Addr != Addr(2*64) {
		t.Fatalf("victim = %#x, want %#x", v.Addr, 2*64)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1<<10, 2, 64)
	l := c.Victim(0)
	l.Addr = 0
	l.State = Exclusive
	c.Reset()
	if c.Lookup(0) != nil {
		t.Fatal("line survived Reset")
	}
}

// Property: the cache agrees with a reference model (map + per-set LRU
// order) over random access sequences. Eight sets take the shift/mask set
// index; six take the modulo fallback.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, sets := range []int{8, 6} {
		t.Run(fmt.Sprintf("%dsets", sets), func(t *testing.T) {
			checkCacheAgainstReference(t, sets)
		})
	}
}

func checkCacheAgainstReference(t *testing.T, sets int) {
	const (
		lineSize = 64
		assoc    = 4
	)
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(sets*assoc*lineSize, assoc, lineSize)
		// Reference: per-set slice in LRU order (front = oldest).
		ref := make([][]Addr, sets)
		setOf := func(a Addr) int { return int(a/lineSize) % sets }
		for i := 0; i < int(steps); i++ {
			a := Addr(rng.Intn(64)) * lineSize
			si := setOf(a)
			// Reference update.
			found := -1
			for j, x := range ref[si] {
				if x == a {
					found = j
					break
				}
			}
			if found >= 0 {
				ref[si] = append(append(ref[si][:found:found], ref[si][found+1:]...), a)
			} else {
				if len(ref[si]) == assoc {
					ref[si] = ref[si][1:] // evict LRU
				}
				ref[si] = append(ref[si], a)
			}
			// Cache update.
			l := c.Lookup(a)
			if l == nil {
				l = c.Victim(a)
				clearLine(l)
				l.Addr = a
				l.State = Shared
			}
			c.Touch(l)
			// Check contents of the set.
			for _, x := range ref[si] {
				if c.Lookup(x) == nil {
					return false
				}
			}
			count := 0
			c.ForEachValid(func(l *Line) {
				if setOf(l.Addr) == si {
					count++
				}
			})
			if count != len(ref[si]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: directory sharer-bitmask operations behave like a set.
func TestDirEntryBitmaskProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var e DirEntry
		ref := make(map[int]bool)
		for _, op := range ops {
			n := int(op % 64)
			if op&0x40 != 0 {
				e.AddSharer(n)
				ref[n] = true
			} else {
				e.RemoveSharer(n)
				delete(ref, n)
			}
			if e.HasSharer(n) != ref[n] {
				return false
			}
		}
		return e.SharerCount() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Invariant: after arbitrary coherent traffic, for every directory entry,
// DirExclusive lines are cached Exclusive at exactly the owner, and
// DirShared lines are cached at every listed sharer in the Shared state.
func TestDirectoryCacheConsistencyProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		s, _ := newSysQuick(4)
		rng := rand.New(rand.NewSource(seed))
		now := int64(0)
		for i := 0; i < int(steps); i++ {
			cpu := s.Nodes[rng.Intn(4)].CPUs[rng.Intn(2)]
			a := Addr(rng.Intn(32)) * Addr(s.P.LineSize)
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			now = s.Access(Req{CPU: cpu, Kind: kind, Addr: a, Role: RoleR}, now)
		}
		ok := true
		for _, home := range s.Nodes {
			home.Dir.ForEach(func(line Addr, e *DirEntry) {
				switch e.State {
				case DirExclusive:
					l := s.Nodes[e.Owner].L2.Lookup(line)
					if l == nil || l.State != Exclusive {
						ok = false
					}
					// No other node may hold a coherent copy.
					for _, n := range s.Nodes {
						if n.ID == e.Owner {
							continue
						}
						if l := n.L2.Lookup(line); l != nil && !l.Transparent {
							ok = false
						}
					}
				case DirShared:
					for m, id := e.Sharers, 0; m != 0; m, id = m>>1, id+1 {
						if m&1 == 0 {
							continue
						}
						l := s.Nodes[id].L2.Lookup(line)
						if l == nil || l.State != Shared {
							ok = false
						}
					}
				case DirIdle:
					for _, n := range s.Nodes {
						if l := n.L2.Lookup(line); l != nil && !l.Transparent {
							ok = false
						}
					}
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newSysQuick builds a system without a testing.T (for quick.Check funcs).
func newSysQuick(n int) (*System, error) {
	eng := newQuickEngine()
	s, err := NewSystem(eng, DefaultParams(n))
	return s, err
}

func newQuickEngine() *sim.Engine { return sim.NewEngine() }
