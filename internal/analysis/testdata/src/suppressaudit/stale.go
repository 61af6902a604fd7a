// Package suppressaudit exercises the staleness audit: a well-formed
// suppression that matches no finding is itself a finding, while one
// that suppresses something real is not.
package suppressaudit

// used: the ordered directive suppresses the maporder finding on its own
// line, so it is not stale.
func used(m map[int]int) int {
	s := 0
	for _, v := range m { //simlint:ordered integer sum is order-independent
		s += v
	}
	return s
}

// want-below `stale //simlint:ignore directive`
//
//simlint:ignore maporder nothing on the next line iterates a map
func staleIgnore() int { return 1 }

// want-below `stale //simlint:ordered directive`
//
//simlint:ordered nothing here iterates or sums
func staleOrdered() int { return 2 }

// want-below `malformed directive`
//
//simlint:bogus not a directive kind
func bogus() {}
