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

// reqRec is an open classification record for one directory request on a
// line (see stats.ReqClass). It is closed and counted when the line's
// residency ends.
type reqRec struct {
	role       Role
	excl       bool
	fillDone   int64
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

	// FillDone is the simulated time the most recent fill completes.
	// Accesses arriving earlier merge with the outstanding fill.
	FillDone int64

	lru  int64
	recs []reqRec
}

// Cache is a set-associative cache with LRU replacement. It stores tags
// and coherence metadata only.
type Cache struct {
	// lines holds every frame, set by set: set i is
	// lines[i*assoc : (i+1)*assoc].
	lines     []Line
	assoc     int
	lineShift uint // log2 of the line size
	nsets     int
	// setMask is nsets-1. It selects the set when nsets is a power of two,
	// as in every Table 1 geometry; otherwise modulo is set and the set
	// index falls back to % nsets.
	setMask int
	modulo  bool
	clock   int64

	// frames is the storage lines is drawn from (lines == *frames), and
	// free the list release returns it to.
	frames *[]Line
	free   *freeList[*[]Line]
}

// frameLists holds released frame slices, one list per frame count, so a
// cache reuses the storage of an earlier, released cache of the same
// geometry instead of allocating it afresh. A Table 1 machine has two
// geometries (L1 and L2), so the map stays tiny.
var frameLists struct {
	sync.Mutex
	m map[int]*freeList[*[]Line]
}

// frameList returns the list of released n-frame slices.
func frameList(n int) *freeList[*[]Line] {
	frameLists.Lock()
	defer frameLists.Unlock()
	l := frameLists.m[n]
	if l == nil {
		if frameLists.m == nil {
			frameLists.m = make(map[int]*freeList[*[]Line])
		}
		l = &freeList[*[]Line]{}
		frameLists.m[n] = l
	}
	return l
}

// NewCache returns a cache of the given total size in bytes, associativity,
// and line size (a power of two, as Params.Validate requires). Its frames
// come from a released cache of the same frame count when one is free,
// reset so the cache is indistinguishable from a newly allocated one.
func NewCache(size, assoc, lineSize int) *Cache {
	nsets := size / (assoc * lineSize)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		free:      frameList(nsets * assoc),
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		nsets:     nsets,
		setMask:   nsets - 1,
		modulo:    nsets&(nsets-1) != 0,
	}
	if f, ok := c.free.get(); ok {
		c.frames = f
		c.lines = *f
		c.Reset()
	} else {
		lines := make([]Line, nsets*assoc)
		c.frames = &lines
		c.lines = lines
	}
	return c
}

// release returns the cache's frames to their free list and leaves the cache
// dead: with no frames, a stray Lookup or Victim panics rather than read
// frames a later cache now owns. Releasing twice is a no-op.
func (c *Cache) release() {
	if c.frames == nil {
		return
	}
	c.free.put(c.frames)
	c.frames, c.lines = nil, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// set returns the frames of the set the line-aligned address maps to.
func (c *Cache) set(line Addr) []Line {
	i := int(line >> c.lineShift)
	if c.modulo {
		i %= c.nsets
	} else {
		i &= c.setMask
	}
	i *= c.assoc
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
// the caller must evict before reuse).
func (c *Cache) Victim(line Addr) *Line {
	set := c.set(line)
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
// restarts the LRU clock: NewCache resets reused frames with it.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
}

// ForEachValid calls fn for every valid line.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// clearLine resets a frame to Invalid. LRU state and the (emptied)
// classification-record slice survive: keeping the slice's capacity lets a
// frame that cycles through residencies reuse one backing array instead of
// reallocating records on every refill.
func clearLine(l *Line) {
	*l = Line{lru: l.lru, recs: l.recs[:0]}
}
