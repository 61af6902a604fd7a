package microbench

import (
	"flag"
	"math"
	"runtime"
	"strings"
	"testing"

	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/sim"
)

// TestRegistryNamesAreWellFormed pins the registry shape the committed
// BENCH reports and the CI gate depend on: enough coverage, unique
// slash-path names, and the paired queue benchmarks present.
func TestRegistryNamesAreWellFormed(t *testing.T) {
	all := All()
	if len(all) < 8 {
		t.Fatalf("registry has %d benchmarks, want >= 8", len(all))
	}
	seen := make(map[string]bool)
	for _, bm := range all {
		if bm.Name == "" || bm.Fn == nil {
			t.Fatalf("benchmark %+v incomplete", bm.Name)
		}
		if seen[bm.Name] {
			t.Errorf("duplicate benchmark name %q", bm.Name)
		}
		seen[bm.Name] = true
		if !strings.Contains(bm.Name, "/") {
			t.Errorf("benchmark %q is not a slash path", bm.Name)
		}
	}
	for _, want := range []string{"sim/queue/calendar/hold", "sim/engine/step", "sim/proc/handoff", "obs/emit-access"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

// TestRunProducesReport runs the full registry at a tiny benchtime and
// checks every benchmark yields a plausible result and the report
// round-trips through its JSON encoding.
func TestRunProducesReport(t *testing.T) {
	if err := flag.Set("test.benchtime", "1ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", "1s")

	var progressed int
	rep := Run(func(Result) { progressed++ })
	if len(rep.Benchmarks) != len(All()) || progressed != len(All()) {
		t.Fatalf("ran %d benchmarks (%d progress calls), want %d", len(rep.Benchmarks), progressed, len(All()))
	}
	for _, r := range rep.Benchmarks {
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.AllocsPerOp < 0 {
			t.Errorf("%s: implausible result %+v", r.Name, r)
		}
	}

	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(rep.Benchmarks) || got.Schema != Schema {
		t.Errorf("decode changed report: %+v", got)
	}

	if _, err := Decode([]byte(`{"schema":"other/9"}`)); err == nil {
		t.Error("Decode accepted a foreign schema")
	}
}

// TestRunFilter pins the subset mode cmd/microbench -run exposes.
func TestRunFilter(t *testing.T) {
	if err := flag.Set("test.benchtime", "1ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", "1s")
	rep := Run(nil, "memsys/dir/sharer-scan")
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "memsys/dir/sharer-scan" {
		t.Fatalf("filtered run = %+v", rep.Benchmarks)
	}
}

// TestCompareGate pins the regression-gate arithmetic the CI bench job
// relies on: improvements and renames pass, warn and fail thresholds bind
// at the boundaries.
func TestCompareGate(t *testing.T) {
	old := Report{Schema: Schema, Benchmarks: []Result{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 100},
		{Name: "c", NsPerOp: 100},
		{Name: "gone", NsPerOp: 100},
	}}
	new := Report{Schema: Schema, Benchmarks: []Result{
		{Name: "a", NsPerOp: 80},  // improved
		{Name: "b", NsPerOp: 112}, // warn band
		{Name: "c", NsPerOp: 130}, // fail band
		{Name: "new", NsPerOp: 100},
	}}
	deltas := Compare(old, new)
	if len(deltas) != 5 {
		t.Fatalf("got %d deltas, want 5", len(deltas))
	}
	byName := make(map[string]Delta)
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["a"]; d.Pct != -20 {
		t.Errorf("a: pct = %v, want -20", d.Pct)
	}
	if d := byName["gone"]; !d.OnlyOld || !math.IsNaN(d.Pct) {
		t.Errorf("gone: %+v, want only-old with NaN pct", d)
	}
	if d := byName["new"]; !d.OnlyNew || !math.IsNaN(d.Pct) {
		t.Errorf("new: %+v, want only-new with NaN pct", d)
	}
	warns, fails := Gate(deltas, 10, 25)
	if len(warns) != 1 || warns[0].Name != "b" {
		t.Errorf("warns = %+v, want [b]", warns)
	}
	if len(fails) != 1 || fails[0].Name != "c" {
		t.Errorf("fails = %+v, want [c]", fails)
	}
}

// TestEngineStepZeroAlloc asserts the simulation inner loop — pop,
// dispatch, re-push through the calendar queue — allocates nothing at
// steady state. This is the contract the committed BENCH reports publish
// as allocs_per_op == 0.
func TestEngineStepZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	var fn func()
	fn = func() { eng.After(1, fn) }
	eng.After(1, fn)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { eng.Step() }); avg != 0 {
		t.Errorf("engine step allocates %.2f per op at steady state, want 0", avg)
	}
}

// TestProcHandoffZeroAlloc asserts a process switch allocates nothing at
// steady state: dispatch reuses each process's bound dispatch closure and
// control moves through the processes' own coroutines.
func TestProcHandoffZeroAlloc(t *testing.T) {
	stop := int64(math.MaxInt64)
	eng := pingPong(&stop)
	if avg := testing.AllocsPerRun(1000, func() { eng.RunUntil(eng.Now() + 1) }); avg != 0 {
		t.Errorf("process handoff allocates %.2f per simulated cycle at steady state, want 0", avg)
	}
	stop = eng.Now()
	eng.Run()
	if n := eng.Blocked(); len(n) != 0 || eng.Pending() != 0 {
		t.Errorf("handoff processes did not finish: blocked %v, %d pending", n, eng.Pending())
	}
}

// TestSystemSetupReusesFrames asserts that once the free lists are warm,
// building an 8-CMP Table 1 machine, creating directory entries at every
// home, and finalizing and releasing the machine allocates under 64 KB
// per op on average, against about 7.8 MB of cache frames and a directory
// page per node without reuse. The free lists keep what is released
// through GCs and under the race detector alike, so the bound holds in
// every build.
func TestSystemSetupReusesFrames(t *testing.T) {
	const ops = 40
	setupSystem() // warm the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		setupSystem()
	}
	runtime.ReadMemStats(&after)
	if mean := float64(after.TotalAlloc-before.TotalAlloc) / ops; mean >= 64<<10 {
		t.Errorf("system setup allocates %.0f bytes per op with the free lists warm, want < 64 KB", mean)
	}
}

// TestQueueHoldCalendarZeroAlloc asserts the calendar queue stays
// zero-alloc under the hold workload's pseudo-random delays (bucket
// storage is warm and stable).
func TestQueueHoldCalendarZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	rng := uint64(1)
	var fn func()
	fn = func() {
		rng = rng*6364136223846793005 + 1442695040888963407
		eng.After(int64(rng>>58)+1, fn)
	}
	for i := 0; i < holdPending; i++ {
		eng.After(int64(i%64)+1, fn)
	}
	for i := 0; i < 4*holdPending; i++ {
		eng.Step()
	}
	if avg := testing.AllocsPerRun(2000, func() { eng.Step() }); avg != 0 {
		t.Errorf("calendar hold allocates %.2f per op at steady state, want 0", avg)
	}
}

// TestObsEmitZeroAlloc asserts the observed-access emission fast path is
// zero-alloc: scratch-event reuse means attaching a bus costs emission
// time only, never garbage.
func TestObsEmitZeroAlloc(t *testing.T) {
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Bus = obs.NewBus(nopObserver{})
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	now := s.Access(req, 0)
	if avg := testing.AllocsPerRun(1000, func() { now = s.Access(req, now) }); avg != 0 {
		t.Errorf("observed L1 hit allocates %.2f per op, want 0", avg)
	}
	sinkTime += now
}

// TestRunNKeepsBestAttempt pins the best-of-N estimator: RunN reports one
// result per benchmark (not one per attempt), and the kept ns/op is the
// minimum across attempts — noise only ever slows a benchmark down.
func TestRunNKeepsBestAttempt(t *testing.T) {
	if err := flag.Set("test.benchtime", "1ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", "1s")

	var progressed int
	rep := RunN(3, func(Result) { progressed++ }, "memsys/dir/sharer-scan")
	if len(rep.Benchmarks) != 1 || progressed != 1 {
		t.Fatalf("RunN(3) reported %d benchmarks, %d progress calls; want 1 and 1", len(rep.Benchmarks), progressed)
	}
	single := RunN(0, nil, "memsys/dir/sharer-scan") // n<1 clamps to 1
	if len(single.Benchmarks) != 1 {
		t.Fatalf("RunN(0) reported %d benchmarks, want 1", len(single.Benchmarks))
	}
}
