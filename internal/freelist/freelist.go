// Package freelist holds the free lists that hand released host storage
// from one simulated run to the next: cache frames and directory pages
// (internal/memsys) and calendar queues (internal/sim).
package freelist

import "sync"

// List is a LIFO stack of released host storage, shared by every run in
// the process. Unlike a sync.Pool it keeps whatever is put on it,
// whichever goroutine or P put it there and however many GCs pass, so a
// run always gets back the storage of the runs before it. It never holds
// more than was live at once, so it needs no cap. The zero value is an
// empty list ready to use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently released item, if any.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put pushes a released item.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, v)
}
