// Package memsys models the memory system of a CMP-based DSM
// multiprocessor: per-processor L1 caches, a shared L2 per CMP node, an
// invalidate-based fully-mapped directory protocol, and a fixed-delay
// interconnect with contention at the directory controllers and network
// interface ports. Latency parameters follow Table 1 of the paper
// (approximating the SGI Origin 3000 memory system).
//
// The package performs combined functional and timing simulation: every
// simulated word lives in a flat shared address space (Mem), and every
// access both moves data and advances simulated time through the cache
// hierarchy and protocol.
package memsys

import (
	"fmt"
	"math"
)

// Addr is a byte address in the simulated shared address space.
type Addr uint64

// WordSize is the size in bytes of a simulated word.
const WordSize = 8

// Line returns the line-aligned address containing a, for the given line
// size (a power of two).
func (a Addr) Line(lineSize int) Addr {
	return a &^ Addr(lineSize-1)
}

// Mem is the flat functional store backing the simulated shared address
// space. Words are 8 bytes; allocation only grows. NewMem builds one.
//
// Words live in fixed pages of memPageWords, so Alloc never copies the
// image: it fills the last page and adds zeroed ones. Every page but the
// last is full, and the last is cut to the words allocated, so an access
// past the allocation panics, as a slice index does, and the pages alone
// give the size.
type Mem struct {
	pages    [][]uint64
	lineSize int
}

// memPageShift sizes a Mem page: 512 words, 4 KiB. A run allocates its
// image rounded up to whole pages, so larger pages would cost small runs
// more than the page table saves large ones.
const (
	memPageShift = 9
	memPageWords = 1 << memPageShift
)

// NewMem returns a memory that aligns allocations to lineSize bytes.
func NewMem(lineSize int) *Mem {
	return &Mem{lineSize: lineSize}
}

// Alloc reserves nWords 8-byte words, line-aligned, and returns the base
// address of the region. Successive regions never share a cache line, so
// false sharing only arises within a region (as in the original codes,
// where each array is page-aligned). New words read zero. A negative
// nWords panics.
func (m *Mem) Alloc(nWords int) Addr {
	if nWords < 0 {
		panic(fmt.Sprintf("memsys: Alloc of %d words", nWords))
	}
	base := Addr(m.Size())
	wordsPerLine := m.lineSize / WordSize
	n := (nWords + wordsPerLine - 1) / wordsPerLine * wordsPerLine
	for n > 0 {
		last := len(m.pages) - 1
		if last < 0 || len(m.pages[last]) == memPageWords {
			m.pages = append(m.pages, make([]uint64, 0, memPageWords))
			last++
		}
		// The last page's words past its length were never handed out,
		// so they are still the zeros make left.
		pg := m.pages[last]
		k := min(n, memPageWords-len(pg))
		m.pages[last] = pg[:len(pg)+k]
		n -= k
	}
	return base
}

// Size returns the allocated size in bytes.
func (m *Mem) Size() int64 {
	last := len(m.pages) - 1
	if last < 0 {
		return 0
	}
	return int64(last*memPageWords+len(m.pages[last])) * WordSize
}

// word returns the word at address a.
func (m *Mem) word(a Addr) *uint64 {
	i := a / WordSize
	return &m.pages[i>>memPageShift][i&(memPageWords-1)]
}

// LoadF reads the float64 at address a.
func (m *Mem) LoadF(a Addr) float64 { return math.Float64frombits(*m.word(a)) }

// StoreF writes the float64 v at address a.
func (m *Mem) StoreF(a Addr, v float64) { *m.word(a) = math.Float64bits(v) }

// LoadI reads the int64 at address a.
func (m *Mem) LoadI(a Addr) int64 { return int64(*m.word(a)) }

// StoreI writes the int64 v at address a.
func (m *Mem) StoreI(a Addr, v int64) { *m.word(a) = uint64(v) }
