package freelist

import "testing"

// TestListIsLIFO checks that Get hands items back newest first and
// reports an empty list.
func TestListIsLIFO(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported an item")
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %t; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("Get on a drained list reported an item")
	}
}
