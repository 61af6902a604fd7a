package memsys

import (
	"fmt"
	"math/bits"
)

// TakeReleased empties every frame free list and checks each storage item
// it takes: every frame that is not zero must lie in a set its cache
// marked. It returns the number of items taken and of marked sets among
// them, and an error naming the first item that breaks the rule.
func TakeReleased() (items, markedSets int, err error) {
	frameLists.Lock()
	defer frameLists.Unlock()
	for g, l := range frameLists.m {
		for {
			st, ok := l.Get()
			if !ok {
				break
			}
			items++
			for _, m := range st.marked {
				markedSets += bits.OnesCount64(m)
			}
			if bad := unmarkedFrames(g, st); len(bad) > 0 && err == nil {
				err = fmt.Errorf("%d x %d cache: frames %v are written but their sets are not marked", g.sets, g.assoc, bad)
			}
		}
	}
	return items, markedSets, err
}
