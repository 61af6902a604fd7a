package memsys

import "testing"

// memRegions are the allocations the Mem tests make, in words: a region
// within the first page, one that ends exactly on a page boundary, one that
// spans several pages, and one that starts mid-page and crosses into the
// next.
var memRegions = []int{10, memPageWords - 16, 3*memPageWords + 5, 700}

// TestMemNewWordsReadZero checks that every word of every region reads
// zero when it is allocated, though the regions before it were written
// all over.
func TestMemNewWordsReadZero(t *testing.T) {
	m := NewMem(64)
	for _, n := range memRegions {
		base := m.Alloc(n)
		for i := 0; i < n; i++ {
			a := base + Addr(i*WordSize)
			if got := m.LoadI(a); got != 0 {
				t.Fatalf("region of %d words at %#x: word %d reads %d after Alloc", n, base, i, got)
			}
			m.StoreI(a, -1)
		}
	}
}

// TestMemAccessPastAllocationPanics checks that a load or a store of the
// word just past the allocation panics, whether that word lies inside the
// last page or starts a page no region has reached, and that so does an
// Alloc of a negative size, which would otherwise shrink the allocation
// under the regions already handed out.
func TestMemAccessPastAllocationPanics(t *testing.T) {
	cases := []struct {
		name  string
		words []int
	}{
		{"inside the last page", []int{10}},
		{"at a page boundary", []int{memPageWords}},
		{"after a multi-page region", []int{10, 2*memPageWords + 3}},
	}
	for _, c := range cases {
		m := NewMem(64)
		for _, n := range c.words {
			m.Alloc(n)
		}
		end := Addr(m.Size())
		m.StoreI(end-WordSize, 1) // the last allocated word is in bounds
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"LoadI", func() { m.LoadI(end) }},
			{"StoreF", func() { m.StoreF(end, 1) }},
		} {
			if !panics(op.fn) {
				t.Errorf("%s: %s one word past the %d-byte allocation did not panic", c.name, op.name, end)
			}
		}
	}

	m := NewMem(64)
	m.Alloc(10)
	size := m.Size()
	if !panics(func() { m.Alloc(-100) }) {
		t.Error("Alloc of -100 words did not panic")
	}
	if m.Size() != size {
		t.Errorf("Alloc of -100 words moved the size from %d to %d bytes", size, m.Size())
	}
	if base := m.Alloc(1); base != Addr(size) {
		t.Errorf("the region after a failed Alloc starts at %#x, inside the %d allocated bytes", base, size)
	}
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestMemRegionAcrossPagesRoundTrips writes distinct values through every
// region, two of which cross page boundaries, and reads every one back
// once all the regions are allocated.
func TestMemRegionAcrossPagesRoundTrips(t *testing.T) {
	m := NewMem(64)
	bases := make([]Addr, len(memRegions))
	value := func(r, i int) float64 { return float64(r*100000+i) + 0.5 }
	for r, n := range memRegions {
		bases[r] = m.Alloc(n)
		first, last := int(bases[r]/WordSize), int(bases[r]/WordSize)+n-1
		if r >= 2 && first/memPageWords == last/memPageWords {
			t.Fatalf("region %d (words %d to %d) does not cross a page boundary", r, first, last)
		}
		for i := 0; i < n; i++ {
			m.StoreF(bases[r]+Addr(i*WordSize), value(r, i))
		}
	}
	for r, n := range memRegions {
		for i := 0; i < n; i++ {
			if got := m.LoadF(bases[r] + Addr(i*WordSize)); got != value(r, i) {
				t.Fatalf("region %d word %d: read %v, want %v", r, i, got, value(r, i))
			}
		}
	}
}
