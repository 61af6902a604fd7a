package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"slipstream/internal/service"
)

// TestServedReportMatchesLocal runs one slipstream configuration locally
// and through a slipsimd server: the two reports must be byte-identical
// but for the served run's one "served:" line, which says the daemon
// simulated it.
func TestServedReportMatchesLocal(t *testing.T) {
	args := []string{"-kernel", "SOR", "-mode", "slipstream", "-arsync", "G0", "-cmps", "4", "-size", "tiny", "-tl", "-si"}
	runOK := func(args []string) string {
		t.Helper()
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("slipsim %v exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	local := runOK(args)
	if !strings.Contains(local, "verification: ok\n") {
		t.Fatalf("local report does not verify:\n%s", local)
	}

	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	served := runOK(append([]string{"-server", ts.URL}, args...))
	if want := local + "served: simulated\n"; served != want {
		t.Errorf("served report:\n%s\nwant the local report and its served line:\n%s", served, want)
	}
}
