package memsys

import "sync"

// freeList is a LIFO stack of released host storage, shared by every
// system in the process. Unlike a sync.Pool it keeps whatever is put on
// it, whichever goroutine or P put it there and however many GCs pass,
// so a run always gets back the storage of the runs before it. It never
// holds more than was live at once, so it needs no cap.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops the most recently released item, if any.
func (l *freeList[T]) get() (v T, ok bool) {
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

// put pushes a released item.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, v)
}
