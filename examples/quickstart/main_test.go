package main

import (
	"strings"
	"testing"
)

// TestRun pins the example's report. Both modes must verify, and the
// cycles, breakdowns and counts are simulated results, so they are exact.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `SOR on 8 CMP nodes (Table 1 machine)
  single mode:        632753 cycles
  slipstream (L0):    591512 cycles  (1.07x vs single)
  R-stream time:   busy=313344 stall=267917 barrier=10210 lock=0 arsync=0
  A-stream time:   busy=313344 stall=269497 barrier=0 lock=0 arsync=3558
  A-stream issued 2963 exclusive prefetches; 4082 fills merged
`
	if got := b.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
