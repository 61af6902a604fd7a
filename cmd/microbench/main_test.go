package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slipstream/internal/microbench"
)

// writeReport writes a report of one benchmark at ns ns/op into dir and
// returns its path.
func writeReport(t *testing.T, dir, name string, ns float64) string {
	t.Helper()
	rep := microbench.Report{Schema: microbench.Schema, GoVersion: "go1.x",
		Benchmarks: []microbench.Result{{Name: "wire/result/decode", NsPerOp: ns, Iterations: 1000}}}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareExitStatus pins the verdict the CI bench job takes from
// compare: 0 for an improvement and for a regression in the warn band,
// which prints its WARN line; 1 for one in the fail band; 2 for a report
// that is missing or a wrong argument count.
func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 100)
	for _, c := range []struct {
		name string
		args []string
		want int
		line string // a line stdout must hold
	}{
		{"improvement", []string{"compare", base, writeReport(t, dir, "faster.json", 80)}, 0, "-20.00%"},
		{"warn band", []string{"compare", base, writeReport(t, dir, "warn.json", 115)}, 0, "WARN wire/result/decode regressed 15.00% (threshold 10%)"},
		{"fail band", []string{"compare", base, writeReport(t, dir, "fail.json", 130)}, 1, "FAIL wire/result/decode regressed 30.00% (threshold 25%)"},
		{"missing file", []string{"compare", base, filepath.Join(dir, "absent.json")}, 2, ""},
		{"two arguments", []string{"compare", base}, 2, ""},
		{"four arguments", []string{"compare", base, base, base}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(append([]string{"-warn", "10", "-fail", "25"}, c.args...), &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d (stdout %q, stderr %q)", c.name, got, c.want, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.line) {
			t.Errorf("%s: stdout %q lacks %q", c.name, stdout.String(), c.line)
		}
		if c.want == 2 && stderr.Len() == 0 {
			t.Errorf("%s: exit %d with nothing on stderr", c.name, c.want)
		}
	}
}
