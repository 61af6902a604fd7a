// Package microbench is the repository's hot-path microbenchmark harness.
//
// It packages the simulator's performance-critical inner loops — event-queue
// scheduling, process handoff, directory lookup and sharer scans, L1/L2
// access paths, and observation-bus emission — as named, programmatically
// runnable benchmarks, and serializes their results as a machine-readable
// report (schema "slipstream-bench/1"). A report committed with each PR
// (BENCH_N.json at the repository root) gives the project a reviewable
// performance trajectory, and Compare diffs two reports so CI can gate on
// regressions.
//
// cmd/microbench is the command-line front end.
package microbench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// Schema identifies the report format. Bump the suffix on incompatible
// changes; Decode rejects reports with a different schema string.
const Schema = "slipstream-bench/1"

// Benchmark is one named hot-path benchmark. Names are slash-separated
// paths (subsystem/path/variant) so related entries sort and diff together:
// sim/queue/{heap,calendar}/hold differ only in the queue implementation.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// Result is the measured outcome of one benchmark.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is a full harness run: the schema tag, the toolchain that produced
// it, and one Result per benchmark.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	Benchmarks []Result `json:"benchmarks"`
}

// Run executes the registered benchmarks whose names are in filter (all of
// them when filter is empty) under testing.Benchmark, calling progress (if
// non-nil) after each one, and returns the report. Iteration counts honor
// the test.benchtime flag when the caller has registered testing flags
// (testing.Init).
func Run(progress func(Result), filter ...string) Report {
	return RunN(1, progress, filter...)
}

// RunN is Run with each benchmark attempted n times, keeping the attempt
// with the least ns/op. Scheduler noise and frequency scaling only ever
// slow a benchmark down, so best-of-N is the stable estimator to gate on:
// a single noisy attempt must not read as a regression. progress is
// called once per benchmark, with the kept attempt.
func RunN(n int, progress func(Result), filter ...string) Report {
	if n < 1 {
		n = 1
	}
	want := make(map[string]bool, len(filter))
	for _, name := range filter {
		want[name] = true
	}
	rep := Report{Schema: Schema, GoVersion: runtime.Version()}
	for _, bm := range All() {
		if len(want) > 0 && !want[bm.Name] {
			continue
		}
		var best Result
		for attempt := 0; attempt < n; attempt++ {
			r := testing.Benchmark(bm.Fn)
			res := Result{
				Name:        bm.Name,
				NsPerOp:     round2(float64(r.T.Nanoseconds()) / float64(r.N)),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			if attempt == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, best)
		if progress != nil {
			progress(best)
		}
	}
	return rep
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// Encode serializes a report as indented JSON with a trailing newline, the
// exact bytes committed as BENCH_N.json.
func (r Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a serialized report.
func Decode(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("microbench: bad report: %w", err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("microbench: schema %q, want %q", r.Schema, Schema)
	}
	return r, nil
}

// Delta is the per-benchmark outcome of comparing two reports. Pct is the
// ns/op change in percent, positive when the new report is slower. For a
// benchmark present on only one side, Pct is NaN and OnlyOld/OnlyNew is
// set; such entries never trip the gate (a renamed benchmark is a review
// matter, not a regression).
type Delta struct {
	Name    string
	OldNs   float64
	NewNs   float64
	Pct     float64
	OnlyOld bool
	OnlyNew bool
}

// Compare diffs two reports benchmark-by-benchmark, matching on name, in
// sorted name order.
func Compare(old, new Report) []Delta {
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]Result, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		newBy[r.Name] = r
	}
	names := make([]string, 0, len(oldBy)+len(newBy))
	for n := range oldBy {
		names = append(names, n)
	}
	for n := range newBy {
		if _, ok := oldBy[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var deltas []Delta
	for _, n := range names {
		o, haveOld := oldBy[n]
		w, haveNew := newBy[n]
		d := Delta{Name: n, OldNs: o.NsPerOp, NewNs: w.NsPerOp, Pct: math.NaN()}
		switch {
		case !haveOld:
			d.OnlyNew = true
		case !haveNew:
			d.OnlyOld = true
		case o.NsPerOp > 0:
			d.Pct = round2((w.NsPerOp - o.NsPerOp) / o.NsPerOp * 100)
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// Gate splits deltas into warnings and failures against the given ns/op
// regression thresholds in percent (warn <= pct < fail warns; pct >= fail
// fails). Improvements and one-sided entries pass.
func Gate(deltas []Delta, warnPct, failPct float64) (warns, fails []Delta) {
	for _, d := range deltas {
		switch {
		case math.IsNaN(d.Pct):
		case d.Pct >= failPct:
			fails = append(fails, d)
		case d.Pct >= warnPct:
			warns = append(warns, d)
		}
	}
	return warns, fails
}
