// Command perfbench is the repository's end-to-end benchmark. It measures
// what the two kinds of user of this reproduction wait for: host time per
// paper-size simulation (regenerating the paper's figures) and latency and
// throughput of runs served through a slipsimd gateway (querying the
// fleet). It drives the system only through its public entry points —
// runspec.RunSpec and core.Run, kernels.NewParams, service.New and
// Server.Handler, service.NewGateway and Gateway.Handler, client.Client,
// and runcache.Open — and is built as its own module so nothing under
// internal/ or cmd/ carries benchmark code.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-slipstream --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package into .bench_build and runs it. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones. Every run also writes its
// result, with the seed it used, to .bench_build/perfbench/<workload>-seed<n>/.
//
// # Workloads
//
// A pass is the unit of repeated work; each run repeats passes until
// --seconds have elapsed and reports medians over them.
//
//   - paper-slipstream: the eight paper kernels FFT, OCEAN, WATER-NS,
//     WATER-SP, SOR, CG, MG and SP at paper size on 8 CMPs, in slipstream
//     mode with the L1 A-R policy, transparent loads and self-invalidation,
//     one at a time and uncached; one pass runs each kernel once. A-R pairs
//     double the simulated processes and switch on request classification
//     and the TL/SI directory paths, so this is where sim handoff, core A-R
//     synchronization and memsys coherence do the most work.
//   - paper-single: the same kernels, size and CMP count in single mode. It
//     has half the processes and no A-streams, classification or TL/SI, so a
//     change that touches only slipstream machinery should leave it
//     unchanged, while engine and cache-indexing changes move both paper
//     workloads.
//   - serve-zipf: a closed loop of 2 clients through a gateway in front of 3
//     in-process replicas, each with 1 worker and its own runcache
//     directory. One pass is 4000 single-spec requests from a stream seeded
//     by --seed: 3800 Zipf(s=1.2) draws over 52 hot tiny specs (13
//     workloads × {single, slipstream+TL+SI} × {2, 4} CMPs, in a fixed
//     popularity order), which set-up pre-seeds into every replica's cache,
//     and 200 cold SYNTH specs, spread evenly over those modes and CMP
//     counts, whose seed never repeats within a run, so each forces a
//     simulation and a Store. Hits exercise gateway hashing, HTTP, the memo
//     and JSON and set req_p50_ms; misses add runcache Load/Store and a
//     simulation and set req_p99_ms.
//
// Every simulation starts with empty modelled caches, as in the paper:
// core.Run builds a fresh memory system for each run, and the paper
// workloads bypass the result cache. LU is left out of the paper workloads
// because one LU slipstream run alone takes about 6.5 s, longer than the
// other eight kernels together. There is no hardware reference for this
// model — it is unvalidated — so the benchmark reports no error figure.
//
// # End-to-end metrics (--trace 0)
//
// An operation is one kernel run on the paper workloads and one request on
// serve-zipf; attempted and failed count operations. Host times are in
// reference seconds (see refProbe): each kernel run, pass and set-up is
// scaled by the host's speed measured by a fixed probe loop next to it.
//
//   - setup_s: median of five set-ups. Paper workloads: building the eight
//     kernels plus a tiny-size warm-up run of each in the workload's mode.
//     serve-zipf: starting the cluster, computing the local references of
//     the hot specs, pre-seeding every replica cache with them, and one
//     warm-up request per hot spec through the gateway.
//   - wall_s: host time of one pass: on the paper workloads the sum over
//     the kernels of each kernel's median run time, on serve-zipf the median
//     pass time.
//   - ns_per_access: host time per simulated memory reference (L1 hits plus
//     misses from Result.Mem): wall_s over a pass's references on the paper
//     workloads; on serve-zipf the median over passes of pass time over the
//     references of the pass's cold simulations.
//   - alloc_mb: median host heap allocation per pass, in 10^6 bytes.
//   - peak_rss_mb: the process's resident-set high-water mark.
//   - req_per_s: operations per pass over wall_s.
//   - req_p50_ms, req_p99_ms: the median and 99th percentile of operation
//     latency. On the paper workloads the percentiles are taken over the
//     eight kernels' median run times, so req_p99_ms is close to the slowest
//     kernel's.
//
// # Per-layer metrics (--trace 1)
//
// The traced run first repeats untraced passes for half of --seconds, then
// traced passes for the other half. Tracing is done from outside the
// program: a core.Kernel wrapper times Setup and Verify, an obs.Observer
// counts EvStep, a runcache.Store decorator is the replicas'
// service.Config.Cache, HTTP middleware wraps Server.Handler and
// Gateway.Handler, an http.RoundTripper is passed as
// GatewayConfig.HTTPClient, and a runtime/pprof CPU profile covers the
// traced passes, with self time summed per package by `go tool pprof`.
// Spans and the profile stay in memory and are written beside the result
// at the end. Counts are per pass; on serve-zipf they are those of the
// first traced pass, whose stream is fixed by the seed. A metric of a layer
// a workload does not exercise, or cannot see from outside the program,
// reads 0 there. Each layer, its metrics, and the end-to-end metric and
// workloads they should move:
//
//	kernels     kernels.new_ms kernels.setup_ms kernels.verify_ms
//	            → setup_s, wall_s; both paper workloads
//	core        core.run_s core.sim_s core.sim_mcycles core.recoveries
//	            core.arsync_mcycles cpu.core
//	            → wall_s, ns_per_access; A-R terms on paper-slipstream only
//	sim         sim.events sim.ns_per_event cpu.sched cpu.sim cpu.sim.calqueue
//	            → ns_per_access; both paper workloads, not serve-zipf
//	memsys      memsys.accesses memsys.l1_miss_rate memsys.l2_miss_rate
//	            memsys.remote_dir_reqs memsys.invalidations memsys.tl_issued
//	            memsys.si_hints cpu.memsys cpu.memsys.cache_lookup
//	            → ns_per_access; both paper workloads
//	obs         obs.traced_overhead_pct cpu.obs
//	            → nothing while tracing is off
//	runcache    runcache.load_calls runcache.load_hits runcache.load_p50_us
//	            runcache.store_calls runcache.store_p50_us cpu.runcache
//	            → req_p99_ms, and setup_s through pre-seeding; serve-zipf
//	service     service.replica_p50_ms service.replica_miss_p50_ms
//	            service.hit_ratio service.memo.hit service.cache.hit
//	            service.cache.miss run.count
//	            → req_p50_ms via hits, req_p99_ms via misses; serve-zipf
//	gateway     gateway.self_p50_ms gateway.fanout_p50_ms gateway.rehash
//	            gateway.rejected
//	            → req_p50_ms, req_per_s; serve-zipf
//	client/api  client.retries cpu.json → req_per_s; serve-zipf
//	runtime     cpu.gc gc.cycles → alloc_mb, wall_s; all workloads
//
// Host times here are raw: a traced run runs no probe loops, so its CPU
// profile holds only the workload. core.run_s and core.sim_s (run_s minus
// kernel Setup and Verify) come from the untraced passes of the traced
// run; obs.traced_overhead_pct compares the traced passes with them (pass
// wall time on serve-zipf). On serve-zipf the core and memsys counts are
// those of the cold results served in the first traced pass, and sim.events
// is the replicas' engine.events counter. cpu.* are shares of all profile
// samples, in percent. Queue wait inside a replica is not visible from
// outside the program and is not reported.
//
// # Self-checks
//
// Every paper run must return no error and no Result.VerifyErr; every
// served result must be byte-identical to a local core.Run of its spec,
// computed outside the timed phase. Simulated statistics must repeat
// exactly: cycles, the memsys counts, recoveries and A-R wait of each
// kernel across every pass, traced or not, and sim.events across traced
// passes; on serve-zipf every pass must simulate exactly its cold requests
// (run.count) and serve every hot request from cache. A failed check makes
// correct false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given; it is
// recorded with every result.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	seed   int64
	budget time.Duration // length of the timed phase
	trace  bool
	dir    string // where this run writes its result, spans and profile
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host *hostSpeed // the probes that scaled the run's host times
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list every reported metric in BENCHMARK.json
// order. A run reports all of one list.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"ns_per_access", "ns"}, {"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"}, {"req_per_s", "1/s"}, {"req_p50_ms", "ms"}, {"req_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"kernels.new_ms", "ms"}, {"kernels.setup_ms", "ms"}, {"kernels.verify_ms", "ms"},
	{"core.run_s", "s"}, {"core.sim_s", "s"}, {"core.sim_mcycles", "Mcycles"},
	{"core.recoveries", "count"}, {"core.arsync_mcycles", "Mcycles"}, {"cpu.core", "%"},
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"cpu.sched", "%"}, {"cpu.sim", "%"},
	{"cpu.sim.calqueue", "%"}, {"memsys.accesses", "count"}, {"memsys.l1_miss_rate", "ratio"},
	{"memsys.l2_miss_rate", "ratio"}, {"memsys.remote_dir_reqs", "count"},
	{"memsys.invalidations", "count"}, {"memsys.tl_issued", "count"},
	{"memsys.si_hints", "count"}, {"cpu.memsys", "%"}, {"cpu.memsys.cache_lookup", "%"},
	{"obs.traced_overhead_pct", "%"}, {"cpu.obs", "%"}, {"runcache.load_calls", "count"},
	{"runcache.load_hits", "count"}, {"runcache.load_p50_us", "us"},
	{"runcache.store_calls", "count"}, {"runcache.store_p50_us", "us"}, {"cpu.runcache", "%"},
	{"service.replica_p50_ms", "ms"}, {"service.replica_miss_p50_ms", "ms"},
	{"service.hit_ratio", "ratio"}, {"service.memo.hit", "count"}, {"service.cache.hit", "count"},
	{"service.cache.miss", "count"}, {"run.count", "count"}, {"gateway.self_p50_ms", "ms"},
	{"gateway.fanout_p50_ms", "ms"}, {"gateway.rehash", "count"}, {"gateway.rejected", "count"},
	{"client.retries", "count"}, {"cpu.json", "%"}, {"cpu.kernels", "%"}, {"cpu.gc", "%"},
	{"gc.cycles", "count"},
}

// workloads maps each workload name to its runner. A runner returns an
// error only when it cannot produce a result at all.
var workloads = map[string]func(config) (*report, error){
	"paper-slipstream": func(cfg config) (*report, error) { return runPaper(cfg, true) },
	"paper-single":     func(cfg config) (*report, error) { return runPaper(cfg, false) },
	"serve-zipf":       runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		dir:    filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d", *workload, *seed)),
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var probe float64
	if rep.host != nil {
		probe = median(rep.host.probes)
	}
	record, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  int     `json:"seconds"`
		Trace    int     `json:"trace"`
		ProbeMS  float64 `json:"host_probe_median_ms"`
		Result   *report `json:"result"`
	}{*workload, *seed, *seconds, *trace, probe, rep}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.dir, fmt.Sprintf("result-trace%d.json", *trace)), record, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d, host probe median %.3f ms (reference %v; 0: not probed)\n%s\n",
		*workload, *seed, probe, refProbe, line)
	return 0
}

// newReport returns a passing report carrying every metric of the run's
// list at zero, for the workload to fill in.
func newReport(traced bool) *report {
	list := endToEnd
	if traced {
		list = perLayer
	}
	r := &report{Correct: true, Metrics: make(map[string]metric, len(list))}
	for _, d := range list {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a metric the run's list declares; naming any other is a bug.
func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's list")
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail marks the run incorrect, saying why on standard error.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// host samples process-wide counters from runtime/metrics.
type host struct{ allocBytes, gcCycles uint64 }

func readHost() host {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return host{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// peakRSSMB returns the process's resident-set high-water mark in 10^6
// bytes (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// timedPhase repeats pass until budget has elapsed, at least once.
func timedPhase(budget time.Duration, pass func()) {
	for start := time.Now(); ; {
		pass()
		if time.Since(start) >= budget {
			return
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Host time. The shared hosts this benchmark runs on change speed by up to
// a third within seconds, as other tenants come and go, which swamps the
// changes the benchmark exists to detect. So in an untraced run every host
// interval is measured right after a fixed probe loop and scaled by
// refProbe over the probe's time: host times are reported in reference
// seconds, the time the interval would take on a host that runs the probe
// in refProbe. On a 2-CPU Xeon host this cut the run-to-run quartile spread
// of wall time from 11% to 3-4% on the paper workloads and to 9% on
// serve-zipf (ten runs each), whose HTTP and scheduling noise the probe
// does not see. Each run records the median probe time with its result, so
// raw times can be recovered.
const (
	probeSteps = 4_000_000
	refProbe   = 10 * time.Millisecond
)

// The probe's tables are sized like a core's L2 cache, so the probe mixes
// arithmetic and cache traffic as the simulator does. Two probes run at
// once, one per CPU the workloads keep busy (the simulation and the
// collector, or serve-zipf's two clients); only the goroutine running the
// workload starts probes.
var (
	probeTables [2][1 << 16]uint64
	probeSink   [len(probeTables)]uint64
)

// hostSpeed probes the host's current speed and keeps every probe time.
type hostSpeed struct{ probes []float64 } // ms

// newHostSpeed returns a hostSpeed whose probe tables are already paged in,
// so no probe pays for first touching them.
func newHostSpeed() *hostSpeed {
	for i := range probeTables {
		probeLoop(i)
	}
	return &hostSpeed{}
}

// speed is the factor converting host time into reference time.
type speed float64

// measure collects the heap first, so a probe never overlaps collector
// work left by the previous interval and every measured interval starts
// from a collected heap, as a fresh process would. The probes start
// together, so they always share the host as two busy CPUs do. A nil
// hostSpeed only collects and leaves host times unscaled; traced runs use
// it, so their CPU profile holds no probes.
func (h *hostSpeed) measure() speed {
	runtime.GC()
	if h == nil {
		return 1
	}
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	times := make([]time.Duration, len(probeTables))
	for i := range probeTables {
		ready.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			times[i] = probeLoop(i)
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	d := sum / time.Duration(len(times))
	h.probes = append(h.probes, ms(d))
	return speed(float64(refProbe) / float64(d))
}

// probeLoop runs the fixed probe on table i and returns how long it took.
func probeLoop(i int) time.Duration {
	start := time.Now()
	t := &probeTables[i]
	x := uint64(88172645463325252)
	for n := 0; n < probeSteps; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&(uint64(len(t))-1)] += x
	}
	probeSink[i] += x
	return time.Since(start)
}

func (s speed) scale(d time.Duration) time.Duration { return time.Duration(float64(d) * float64(s)) }

// mean returns the speed over an interval bounded by probes reading s and
// o: the factor for the mean of their probe times.
func (s speed) mean(o speed) speed { return 2 / (1/s + 1/o) }
