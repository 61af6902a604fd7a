package memsys

import (
	"math/bits"
	"sync"
)

// LineState is the coherence state of a cached line. The model merges the
// usual E and M states: Exclusive means this cache holds the only copy and
// may write it (a dirty copy that must be written back when displaced).
type LineState uint8

// Line states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return "?"
}

// Role identifies which slipstream stream issued an access. In single and
// double modes all accesses are RoleNone.
type Role uint8

// Stream roles.
const (
	RoleNone Role = iota
	RoleR         // the full (redundant) task
	RoleA         // the reduced (advanced) task
)

func (r Role) String() string {
	switch r {
	case RoleR:
		return "R"
	case RoleA:
		return "A"
	}
	return "-"
}

// reqRec is an open classification record for one directory request on
// an L2 line (see stats.ReqClass). Records live in their cache's slab
// (Cache.recs); a line's open records are a chain through next, starting
// at Line.rec. A record is closed and counted when the line's residency
// ends, and its slot goes on the cache's free chain.
type reqRec struct {
	fillDone   int64
	next       int32 // 1 + the slab index of the chain's next record, or 0
	role       Role
	excl       bool
	compDuring bool // companion stream touched while the fill was in flight
	compAfter  bool // companion stream touched after the fill completed
}

// Line is one cache line's metadata. Data is not stored here; all values
// live in the flat functional memory.
type Line struct {
	Addr  Addr // line-aligned address, meaningful when State != Invalid
	State LineState

	// Transparent marks an L2 line filled by a transparent reply: a
	// non-coherent copy visible only to the A-stream.
	Transparent bool

	// SIMark is set when the directory sent this (exclusively owned) line
	// a self-invalidation hint; the line is processed at the R-stream's
	// next synchronization point.
	SIMark bool

	// WrittenInCS records that a store touched the line from inside a
	// critical section; SI then treats the line as migratory and fully
	// invalidates it rather than downgrading.
	WrittenInCS bool

	// rec is 1 + the index in the cache's slab of the line's first open
	// classification record, or 0 for none. Only L2 lines of classifying
	// runs open records.
	rec int32

	// FillDone is the simulated time the most recent fill completes.
	// Accesses arriving earlier merge with the outstanding fill.
	FillDone int64

	lru int64
}

// Cache is a set-associative cache with LRU replacement. It stores tags
// and coherence metadata only.
type Cache struct {
	// lines holds every frame, set by set: set i is
	// lines[i*assoc : (i+1)*assoc].
	lines []Line
	// marked has bit i%64 of word i/64 set once Victim has handed out a
	// frame of set i since the last Reset. Every frame of an unmarked set
	// is still zero: Victim is the only way to a frame that Lookup did not
	// return, and Lookup returns only valid frames, which some Victim call
	// handed out. So Reset clears, and ForEachValid walks, the marked sets
	// alone, and a run pays for the sets it touched, not for the cache.
	marked    []uint64
	assoc     int
	lineShift uint // log2 of the line size
	nsets     int
	// setMask is nsets-1. It selects the set when nsets is a power of two,
	// as in every Table 1 geometry; otherwise modulo is set and the set
	// index falls back to % nsets.
	setMask int
	modulo  bool
	clock   int64

	// recs is the slab of the lines' classification records, and freeRec
	// the head of the chain of its closed slots through reqRec.next: 1 +
	// a slab index, or 0 for none. Reset truncates the slab and keeps its
	// capacity, so a run opens records in the slots of the runs before it.
	recs    []reqRec
	freeRec int32

	// frames is the storage lines is drawn from (lines == *frames), and
	// free the list release returns it to, with marked and recs.
	frames *[]Line
	free   *freeList[storage]
}

// storage is what a cache takes from and releases to a free list: its
// frames, the bitmap of their marked sets and its record slab, as one
// item, so reuse allocates nothing.
type storage struct {
	frames *[]Line
	marked []uint64
	recs   []reqRec
}

// geometry keys the free lists. A marked bit names a set, and which frames
// a set holds depends on the associativity: set i of a 4096-set 4-way
// cache is frames 4i to 4i+3, of an 8192-set 2-way cache of the same
// frame count frames 2i and 2i+1. So storage goes back only to a cache of
// the geometry that marked it, and no cache reads another geometry's bits.
type geometry struct{ sets, assoc int }

// frameLists holds released storage, one list per geometry, so a cache
// reuses the storage of an earlier, released cache of the same geometry
// instead of allocating it afresh. A Table 1 machine has two geometries
// (L1 and L2), so the map stays tiny.
var frameLists struct {
	sync.Mutex
	m map[geometry]*freeList[storage]
}

// frameList returns the list of storage released by caches of geometry g.
func frameList(g geometry) *freeList[storage] {
	frameLists.Lock()
	defer frameLists.Unlock()
	l := frameLists.m[g]
	if l == nil {
		if frameLists.m == nil {
			frameLists.m = make(map[geometry]*freeList[storage])
		}
		l = &freeList[storage]{}
		frameLists.m[g] = l
	}
	return l
}

// NewCache returns a cache of the given total size in bytes, associativity,
// and line size (a power of two, as Params.Validate requires). Its storage
// comes from a released cache of the same geometry when one is free, reset
// so the cache is indistinguishable from a newly allocated one.
func NewCache(size, assoc, lineSize int) *Cache {
	nsets := size / (assoc * lineSize)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		free:      frameList(geometry{nsets, assoc}),
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		nsets:     nsets,
		setMask:   nsets - 1,
		modulo:    nsets&(nsets-1) != 0,
	}
	if st, ok := c.free.get(); ok {
		c.frames, c.lines, c.marked, c.recs = st.frames, *st.frames, st.marked, st.recs
		c.Reset()
	} else {
		lines := make([]Line, nsets*assoc)
		c.frames, c.lines = &lines, lines
		c.marked = make([]uint64, (nsets+63)/64)
	}
	return c
}

// release returns the cache's storage to its free list and leaves the cache
// dead: with no frames, a stray Lookup or Victim panics rather than read
// frames a later cache now owns. Releasing twice is a no-op.
func (c *Cache) release() {
	if c.frames == nil {
		return
	}
	c.free.put(storage{c.frames, c.marked, c.recs})
	c.frames, c.lines, c.marked, c.recs = nil, nil, nil, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// index returns the set the line-aligned address maps to.
func (c *Cache) index(line Addr) int {
	i := int(line >> c.lineShift)
	if c.modulo {
		return i % c.nsets
	}
	return i & c.setMask
}

// set returns the frames of the set the line-aligned address maps to.
func (c *Cache) set(line Addr) []Line {
	i := c.index(line) * c.assoc
	return c.lines[i : i+c.assoc : i+c.assoc]
}

// Lookup returns the valid line holding the line-aligned address, or nil.
func (c *Cache) Lookup(line Addr) *Line {
	set := c.set(line)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == line {
			return &set[i]
		}
	}
	return nil
}

// Touch updates LRU state for a line that was just accessed.
func (c *Cache) Touch(l *Line) {
	c.clock++
	l.lru = c.clock
}

// Victim returns the frame to fill for the given line address: an invalid
// way if one exists, otherwise the least recently used valid line (which
// the caller must evict before reuse). It marks the line's set.
func (c *Cache) Victim(line Addr) *Line {
	i := c.index(line)
	c.marked[i>>6] |= 1 << (i & 63)
	i *= c.assoc
	set := c.lines[i : i+c.assoc : i+c.assoc]
	var lru *Line
	for i := range set {
		if set[i].State == Invalid {
			return &set[i]
		}
		if lru == nil || set[i].lru < lru.lru {
			lru = &set[i]
		}
	}
	return lru
}

// Reset invalidates every line, drops every classification record, and
// restarts the LRU clock: NewCache resets reused frames with it. Only the
// marked sets can hold anything, so it clears each run of consecutive
// marked sets with one clear, and then the marks. The record slab is
// truncated, not freed.
func (c *Cache) Reset() {
	for w, m := range c.marked {
		for m != 0 {
			lo := bits.TrailingZeros64(m)
			n := bits.TrailingZeros64(^(m >> lo)) // marked sets in a row from lo
			i := (w<<6 + lo) * c.assoc
			clear(c.lines[i : i+n*c.assoc])
			m &^= (uint64(1)<<n - 1) << lo
		}
	}
	clear(c.marked)
	c.recs, c.freeRec = c.recs[:0], 0
	c.clock = 0
}

// ForEachValid calls fn for every valid line, in frame order. Only the
// marked sets can hold one, so it walks those alone.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for w, m := range c.marked {
		for ; m != 0; m &= m - 1 {
			i := (w<<6 + bits.TrailingZeros64(m)) * c.assoc
			for j := i; j < i+c.assoc; j++ {
				if c.lines[j].State != Invalid {
					fn(&c.lines[j])
				}
			}
		}
	}
}

// clearLine resets a frame to Invalid; its LRU state survives. The caller
// closes an L2 line's records first (closeRecs), or their slab slots stay
// taken until the next Reset.
func clearLine(l *Line) {
	*l = Line{lru: l.lru}
}
