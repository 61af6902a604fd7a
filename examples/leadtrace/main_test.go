package main

import (
	"strings"
	"testing"
)

// TestRun pins the example's lead table. Every run must verify, and the
// leads, token waits and cycles are simulated results, so they are exact.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	const want = `CG on 8 CMPs: A-stream lead over R-stream at session boundaries

policy          mean lead     A token wait       cycles
L1                5875 cy         61807 cy       288576
L0                1121 cy         35891 cy       257051
G1                5106 cy         59552 cy       286664
G0                 659 cy         39516 cy       258947
adaptive          3879 cy         50519 cy       275107  (switches: 21, final: [G1 G1 G1 L1 G1 G1 G1 G1])

Looser policies (L1, G1) let the A-stream bank a larger lead, making
more of its fetches timely — at the risk of premature migration; tighter
policies (L0, G0) keep it just ahead. The adaptive controller tightens
pairs whose windows show premature fetches and loosens ones running late.
`
	if got := b.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
