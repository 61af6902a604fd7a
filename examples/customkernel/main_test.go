package main

import (
	"strings"
	"testing"
)

// TestRun pins the example's report. Both modes must verify, and their
// cycles and breakdowns are simulated results, so they are exact.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `single        403099 cycles  (avg task: busy=67597 stall=229180 barrier=106294 lock=0 arsync=0)
slipstream    416746 cycles  (avg task: busy=67597 stall=255058 barrier=94064 lock=0 arsync=0)

Both modes compute identical checksums; the A-streams' skipped
stores and events never perturb the R-streams' results.
`
	if got := b.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
