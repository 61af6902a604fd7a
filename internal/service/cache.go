package service

import (
	"container/list"
	"sync"

	"slipstream/internal/runspec"
)

// cacheBytes bounds the encoded results one resultCache keeps. A tiny
// run's result encodes to under a kilobyte and a paper-size one to a few,
// so the bound holds thousands of hot specs. Each entry also keeps its
// spec twice, as map key and in the list, about 0.5 KB beyond the bound.
const cacheBytes = 8 << 20

// resultCache keeps encoded results by normalized spec, within a bound on
// their encoded bytes, evicting the least recently used entry first. The
// daemon and the gateway each keep one, and each admits only results that
// were already answered as cached: at a daemon a store hit, at the
// gateway a replica answer flagged cached. A spec asked for once is
// therefore never in it, so one-off specs cannot push out hot ones.
// Entries never go stale: a result is a pure function of its spec.
// Methods are safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	max     int       // bound on size
	size    int       // encoded bytes held
	order   list.List // of *cacheEntry, most recently used first
	entries map[runspec.RunSpec]*list.Element
}

type cacheEntry struct {
	spec runspec.RunSpec
	res  []byte
}

// newResultCache returns an empty cache holding at most max encoded bytes.
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[runspec.RunSpec]*list.Element)}
}

// get returns sp's encoded result and marks it most recently used.
func (c *resultCache) get(sp runspec.RunSpec) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[sp]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

// add enters sp's encoded result as the most recently used entry and
// evicts from the least recently used end until the cache is within its
// bound. A result larger than the whole bound is not kept. The cache
// keeps res itself: callers must not change it afterwards.
func (c *resultCache) add(sp runspec.RunSpec, res []byte) {
	if len(res) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[sp]; ok {
		c.order.MoveToFront(e)
		return // an equal spec has an equal result
	}
	c.entries[sp] = c.order.PushFront(&cacheEntry{spec: sp, res: res})
	c.size += len(res)
	for c.size > c.max {
		old := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, old.spec)
		c.size -= len(old.res)
	}
}
