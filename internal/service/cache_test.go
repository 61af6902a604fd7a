package service

import (
	"bytes"
	"testing"
)

// cacheStats returns how many entries c holds and their encoded bytes.
func cacheStats(c *resultCache) (entries, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.size
}

// TestResultCacheEvictsLeastRecentlyUsed pins the cache's bound and its
// order: it never holds more encoded bytes than its bound, it evicts the
// least recently used entry first, a lookup makes an entry the most
// recently used, and a result larger than the whole bound is not kept.
func TestResultCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newResultCache(100)
	res := func(b byte) []byte { return bytes.Repeat([]byte{b}, 30) }
	check := func(step string, wantEntries int, present, absent []int) {
		t.Helper()
		entries, size := cacheStats(c)
		if entries != wantEntries || size != 30*wantEntries || size > 100 {
			t.Errorf("%s: %d entries, %d bytes; want %d entries of 30 bytes within 100", step, entries, size, wantEntries)
		}
		for _, cmps := range present {
			if got, ok := c.get(tinySpec(cmps)); !ok || !bytes.Equal(got, res(byte(cmps))) {
				t.Errorf("%s: spec %d missing or wrong", step, cmps)
			}
		}
		for _, cmps := range absent {
			if _, ok := c.get(tinySpec(cmps)); ok {
				t.Errorf("%s: spec %d still cached", step, cmps)
			}
		}
	}

	for _, cmps := range []int{1, 2, 3} {
		c.add(tinySpec(cmps), res(byte(cmps)))
	}
	check("three entries", 3, nil, nil)

	c.get(tinySpec(1)) // 2 is now the least recently used
	c.add(tinySpec(4), res(4))
	check("fourth entry", 3, []int{1, 3, 4}, []int{2})

	c.add(tinySpec(3), res(3)) // a repeat adds nothing but recency
	c.add(tinySpec(5), res(5)) // evicts 1, the least recently used
	check("repeat and fifth entry", 3, []int{3, 4, 5}, []int{1})

	c.add(tinySpec(6), bytes.Repeat([]byte{6}, 101))
	check("oversized entry", 3, []int{3, 4, 5}, []int{6})
}
