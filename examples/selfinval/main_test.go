package main

import (
	"strings"
	"testing"
)

// TestRun pins the example's report. Its TL+SI run classifies requests,
// so the A-Only counts come from Finalize's walk of the marked L2 sets;
// every count is a simulated result, so it is exact.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `WATER-NS, 8 CMPs, one-token global A-R synchronization

configuration                      cycles  interventions A-Only reads
prefetch only                      188227            530          173
+ transparent loads                187564            514           65
+ transparent loads + SI           209927            508           74

transparent loads: 65% of 266 A-stream reads issued transparently;
                   50% answered with a stale (transparent) copy, rest upgraded
self-invalidation: 541 hints sent, 212 lines invalidated (migratory),
                   21 written back and downgraded (producer-consumer)

A transparent load returns a possibly-stale copy without disturbing the
exclusive owner (no premature migration); the future-sharer bit it sets
lets the directory hint the owner to flush the line at its next sync point,
so consumers find the data in memory (Figure 8 of the paper).
`
	if got := b.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
