package main

import (
	"strings"
	"testing"
)

// TestRun pins the recommendation for SOR on 4 CMPs at tiny size. Cycle
// counts are simulated, so they are exact, and tied configurations keep
// their candidate order.
func TestRun(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-kernel", "SOR", "-cmps", "4", "-size", "tiny"}, &stdout, &stderr); err != nil {
		t.Fatalf("advisor: %v\n%s", err, stderr.String())
	}
	const want = `advising for SOR on 4 CMP nodes (size tiny)

configuration                    cycles  slowdown
--------------------------------------------------
double                            53262     1.00x
slipstream/L0+FQ                  53623     1.01x
slipstream/L0                     53683     1.01x
slipstream/L1                     54756     1.03x
slipstream/G1                     54756     1.03x
slipstream/adaptive               54756     1.03x
slipstream/G0                     54853     1.03x
slipstream/G1+TL+SI               54899     1.03x
slipstream/G1+TL                  54915     1.03x
single                            63382     1.19x

recommendation: double (two parallel tasks per CMP (more concurrency))
there is still exploitable task-level parallelism at this machine size;
slipstream mode is better reserved for larger configurations.
`
	if got := stdout.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
