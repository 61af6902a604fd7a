package main

import (
	"strings"
	"testing"
)

// TestRun pins the example's Figure 5 panel for its default kernel. Every
// run must verify, and the speedups are ratios of simulated cycles, so
// they are exact.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "CG"); err != nil {
		t.Fatal(err)
	}
	const want = `CG: speedup relative to single mode (Figure 5 panel)

mode       2 CMPs   4 CMPs   8 CMPs  16 CMPs
double       1.67     1.17     0.88     0.68
L1           1.03     0.95     0.91     0.89
L0           1.07     1.02     1.03     1.01
G1           1.03     0.96     0.92     0.90
G0           1.07     1.02     1.02     1.01

L1/L0 = one/zero-token local, G1/G0 = one/zero-token global (Section 3.2)
`
	if got := b.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
