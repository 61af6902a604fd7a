package memsys

import "math/bits"

// DirState is the coherence state of a line at its home directory.
type DirState uint8

// Directory states.
const (
	DirIdle      DirState = iota // memory holds the only copy
	DirShared                    // one or more nodes hold read-only copies
	DirExclusive                 // exactly one node owns a writable copy
)

func (s DirState) String() string {
	switch s {
	case DirIdle:
		return "Idle"
	case DirShared:
		return "Shared"
	case DirExclusive:
		return "Exclusive"
	}
	return "?"
}

// DirEntry is the fully-mapped directory state for one line: a presence
// bitmask of sharers, the exclusive owner, and the future-sharer bitmask
// fed by transparent loads (Section 4 of the paper).
type DirEntry struct {
	State DirState
	// present marks an entry Directory.Entry created. It sits in the
	// padding after State, so an entry stays 32 bytes.
	present bool
	Sharers uint64 // bitmask over nodes
	Owner   int    // valid when State == DirExclusive
	Future  uint64 // future-sharer bitmask (set by transparent loads)
}

// HasSharer reports whether node n is in the sharer list.
func (e *DirEntry) HasSharer(n int) bool { return e.Sharers&(1<<uint(n)) != 0 }

// AddSharer inserts node n into the sharer list.
func (e *DirEntry) AddSharer(n int) { e.Sharers |= 1 << uint(n) }

// RemoveSharer removes node n from the sharer list.
func (e *DirEntry) RemoveSharer(n int) { e.Sharers &^= 1 << uint(n) }

// SharerCount returns the number of sharers (one popcount instruction).
func (e *DirEntry) SharerCount() int { return bits.OnesCount64(e.Sharers) }

// ForEachSharer calls fn for every sharer node id in ascending order. The
// scan is flat bitmap selection — count-trailing-zeros per set bit, no
// per-node conditional walk — so invalidation fan-out costs exactly one
// iteration per actual sharer.
func (e *DirEntry) ForEachSharer(fn func(node int)) {
	for m := e.Sharers; m != 0; m &= m - 1 {
		fn(bits.TrailingZeros64(m))
	}
}

// HasFuture reports whether node n is marked as a future sharer.
func (e *DirEntry) HasFuture(n int) bool { return e.Future&(1<<uint(n)) != 0 }

// AddFuture marks node n as a future sharer.
func (e *DirEntry) AddFuture(n int) { e.Future |= 1 << uint(n) }

// ClearFuture removes node n from the future-sharer list.
func (e *DirEntry) ClearFuture(n int) { e.Future &^= 1 << uint(n) }

// dirPageShift sets the directory page size: 512 entries of 32 bytes,
// 16 KB a page.
const (
	dirPageShift = 9
	dirPageMask  = 1<<dirPageShift - 1
)

// dirPage is a fixed block of directory entries. A page never moves once
// a directory holds it, so an entry pointer stays valid for the whole run.
type dirPage [1 << dirPageShift]DirEntry

// dirPages holds the pages of released directories for the next system
// (see System.Release).
var dirPages freeList[*dirPage]

// Directory holds the home-node directory entries for the lines homed at
// one node. Entries are created on demand in the Idle state. They live in
// fixed-size pages indexed by the line's home-local number: node h of n
// homes lines h, h+n, h+2n, ..., so line number L is entry L/n. A page is
// taken on the first Entry call that lands in it, from the pages released
// by earlier systems when there are any. Pages never move, so a *DirEntry
// stays valid until the system is released.
type Directory struct {
	pages     []*dirPage // indexed by home-local number >> dirPageShift; nil until touched
	home      int
	nodes     int
	lineShift uint
}

// NewDirectory returns an empty directory for the lines homed at node home
// of nodes, with lines 1<<lineShift bytes long.
func NewDirectory(home int, lineShift uint, nodes int) *Directory {
	return &Directory{home: home, nodes: nodes, lineShift: lineShift}
}

// index returns the home-local number of a line homed at this directory.
func (d *Directory) index(line Addr) int { return int(line>>d.lineShift) / d.nodes }

// Entry returns the entry for a line-aligned address homed at this
// directory, creating an Idle entry if none exists.
func (d *Directory) Entry(line Addr) *DirEntry {
	i := d.index(line)
	p := i >> dirPageShift
	if p >= len(d.pages) || d.pages[p] == nil {
		d.addPage(p)
	}
	e := &d.pages[p][i&dirPageMask]
	e.present = true
	return e
}

// addPage installs page p, reusing a released page when one is free and
// clearing it, so it is indistinguishable from a new one.
func (d *Directory) addPage(p int) {
	if p >= len(d.pages) {
		//simlint:ignore hotpathalloc the page table grows to the simulated footprint once per run
		d.pages = append(d.pages, make([]*dirPage, p+1-len(d.pages))...)
	}
	pg, ok := dirPages.get()
	if ok {
		clear(pg[:])
	} else {
		//simlint:ignore hotpathalloc one page per 512 touched lines, reused by later runs
		pg = new(dirPage)
	}
	d.pages[p] = pg
}

// Peek returns the entry if present, without creating one.
func (d *Directory) Peek(line Addr) *DirEntry {
	i := d.index(line)
	p := i >> dirPageShift
	if p >= len(d.pages) || d.pages[p] == nil {
		return nil
	}
	if e := &d.pages[p][i&dirPageMask]; e.present {
		return e
	}
	return nil
}

// ForEach calls fn for every entry in ascending address order: the page
// walk visits home-local numbers, and with them addresses, in order.
func (d *Directory) ForEach(fn func(Addr, *DirEntry)) {
	for p, pg := range d.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			if e := &pg[j]; e.present {
				i := p<<dirPageShift | j
				fn(Addr(i*d.nodes+d.home)<<d.lineShift, e)
			}
		}
	}
}

// release hands the directory's pages to the next system and leaves it
// empty. Releasing twice is a no-op.
func (d *Directory) release() {
	for _, pg := range d.pages {
		if pg != nil {
			dirPages.put(pg)
		}
	}
	d.pages = nil
}
