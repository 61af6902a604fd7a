// Package harness runs the paper's experiments: it sweeps kernels, modes,
// A-R synchronization policies, and machine sizes, and renders each table
// and figure of the evaluation as text.
//
// The harness is split into a plan phase and an execute phase. Each
// figure's renderer is the only declaration of the runs it needs (see
// Figures): a session plans the requested figures by rendering them once
// against a recording copy of itself, which notes every runspec.RunSpec
// they ask for and simulates nothing. It executes the union on a bounded
// worker pool, deduplicated and in plan order, satisfying specs from its
// in-process memo and, when configured, a persistent runcache first. Each
// simulation stays single-threaded and deterministic, so figure output is
// bit-identical at any worker count. Rendering then happens serially in
// paper order against the warm memo.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/obs"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
)

// Config controls a harness session.
type Config struct {
	// Size is the benchmark size preset (kernels.Tiny/Small/Paper).
	Size kernels.Size
	// CMPCounts are the machine sizes swept (default 2, 4, 8, 16).
	CMPCounts []int
	// Out receives the rendered tables and plots.
	Out io.Writer
	// Progress, when set, receives one line per completed run. Lines are
	// emitted in deterministic plan order regardless of worker
	// interleaving, and writes are serialized, so any io.Writer is safe.
	Progress io.Writer
	// Workers bounds concurrent simulations. Zero selects
	// runtime.NumCPU().
	Workers int
	// Cache, when set, persists completed runs across sessions: a
	// runcache.Cache directory, the one backend. A corrupt entry is a
	// miss that CacheCorrupt counts.
	Cache runcache.Store
	// Audit enables the runtime invariant auditor on every simulated run
	// (cache and memo hits are not re-audited); an audit violation fails
	// the session. Audited results are identical to unaudited ones, so
	// they share the cache.
	Audit bool
	// Observe attaches a Chrome-trace exporter and a metrics registry to
	// every simulated run (cache and memo hits contribute nothing — there
	// is no run to observe). Retrieve the collected data with WriteTrace,
	// WriteMetrics, and WriteMetricsCSV after the figures complete.
	Observe bool
	// Context, when set, cancels in-flight execution: queued specs stop
	// being scheduled and the session returns the context's error. Nil
	// behaves like context.Background().
	Context context.Context
}

// Session plans, executes, and renders figures, memoizing runs so figures
// that share configurations (e.g. the single-mode baselines) reuse them.
type Session struct {
	cfg      Config
	progress *lockedWriter // nil when Config.Progress is nil

	// recording marks the planning copy of a session (see plan): result
	// appends each spec to planned and simulates nothing.
	recording bool
	planned   []runspec.RunSpec

	mu           sync.Mutex
	memo         map[runspec.RunSpec]*core.Result
	simulated    int
	cacheHits    int
	cacheCorrupt int

	// Per-spec observation sinks, filled by workers when Config.Observe is
	// set. Keyed by spec so export order can be made deterministic at
	// write-out regardless of worker interleaving.
	obsMu   sync.Mutex
	tracers map[runspec.RunSpec]*obs.ChromeTrace
	metrics map[runspec.RunSpec]*obs.Metrics
}

// NewSession returns a session with the given configuration, applying
// defaults for unset fields.
func NewSession(cfg Config) *Session {
	if len(cfg.CMPCounts) == 0 {
		cfg.CMPCounts = []int{2, 4, 8, 16}
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	s := &Session{cfg: cfg, memo: make(map[runspec.RunSpec]*core.Result)}
	if cfg.Observe {
		s.tracers = make(map[runspec.RunSpec]*obs.ChromeTrace)
		s.metrics = make(map[runspec.RunSpec]*obs.Metrics)
	}
	if cfg.Progress != nil {
		s.progress = &lockedWriter{w: cfg.Progress}
	}
	return s
}

// lockedWriter serializes writes from concurrent workers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// Stats reports how many simulations the session executed and how many
// completed runs it served from the persistent cache.
func (s *Session) Stats() (simulated, cacheHits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulated, s.cacheHits
}

// CacheCorrupt reports how many corrupt cache entries the session hit
// (each one re-simulated; none served).
func (s *Session) CacheCorrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheCorrupt
}

// MaxCMPs returns the largest machine size in the sweep.
func (s *Session) MaxCMPs() int {
	m := s.cfg.CMPCounts[0]
	for _, c := range s.cfg.CMPCounts {
		if c > m {
			m = c
		}
	}
	return m
}

// fftCMPs returns the machine size used for FFT in the Section 4 studies:
// the paper holds FFT at 4 CMPs because its absolute performance degrades
// beyond that for the (scaled) data set.
func (s *Session) fftCMPs() int {
	if s.MaxCMPs() >= 4 {
		return 4
	}
	return s.MaxCMPs()
}

// spec builds the session's RunSpec for one configuration.
func (s *Session) spec(kernel string, mode core.Mode, ar core.ARSync, cmps int, tl, si bool) runspec.RunSpec {
	return runspec.RunSpec{
		Kernel: kernel, Size: s.cfg.Size,
		Mode: mode, ARSync: ar, CMPs: cmps,
		TransparentLoads: tl, SelfInvalidate: si,
	}.Normalize()
}

// lookup satisfies a spec from the memo or the persistent cache. A
// corrupt cache entry counts as a miss (the run re-simulates) but is
// tallied so sessions can report it.
func (s *Session) lookup(sp runspec.RunSpec) (*core.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.memo[sp]; ok {
		return res, true
	}
	if s.cfg.Cache != nil {
		res, ok, err := s.cfg.Cache.Load(sp)
		if err != nil {
			s.cacheCorrupt++
		}
		if ok {
			s.memo[sp] = res
			s.cacheHits++
			return res, true
		}
	}
	return nil, false
}

// store records a freshly simulated, verified run in the memo and the
// persistent cache.
func (s *Session) store(sp runspec.RunSpec, res *core.Result) {
	s.mu.Lock()
	s.memo[sp] = res
	s.simulated++
	cache := s.cfg.Cache
	s.mu.Unlock()
	if cache != nil {
		// A full cache disk is not a reason to lose a finished figure; the
		// run still lives in the memo.
		_ = cache.Store(sp, res)
	}
}

// observersFor builds and registers the observation sinks for one
// simulated spec. Safe for concurrent use from worker goroutines; the
// returned observers themselves are used by a single run.
func (s *Session) observersFor(sp runspec.RunSpec) []obs.Observer {
	if !s.cfg.Observe {
		return nil
	}
	tr := &obs.ChromeTrace{Name: sp.String()}
	m := &obs.Metrics{}
	s.obsMu.Lock()
	s.tracers[sp] = tr
	s.metrics[sp] = m
	s.obsMu.Unlock()
	return []obs.Observer{tr, m}
}

// Execute simulates every planned spec not already memoized or cached on
// the worker pool. It is idempotent: re-executing a covered plan costs
// only map lookups.
func (s *Session) Execute(specs []runspec.RunSpec) error {
	ex := &runspec.Executor{
		Workers: s.cfg.Workers,
		Audit:   s.cfg.Audit,
		Lookup:  s.lookup,
		Observe: s.observersFor,
		Store:   s.store,
		OnDone: func(sp runspec.RunSpec, res *core.Result, cached bool) {
			verb := "ran"
			if cached {
				verb = "hit"
			}
			s.progressLine(verb, sp, res)
		},
	}
	_, err := ex.Execute(s.cfg.Context, specs)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// progressLine emits one completed-run line. The format is stable and
// content-deterministic: it depends only on the spec and its (single-
// threaded, deterministic) result, never on timing.
func (s *Session) progressLine(verb string, sp runspec.RunSpec, res *core.Result) {
	if s.progress == nil {
		return
	}
	extra := ""
	if sp.AdaptiveARSync {
		extra += " adaptive"
	}
	if sp.ForwardQueue {
		extra += " fq"
	}
	fmt.Fprintf(s.progress, "%s %-9s %-10v %v @%2d CMPs tl=%v si=%v%s: %d cycles\n",
		verb, sp.Kernel, sp.Mode, sp.ARSync, sp.CMPs,
		sp.TransparentLoads, sp.SelfInvalidate, extra, res.Cycles)
}

// result returns the completed run for a spec. Execute has already
// memoized every spec of a figure's plan. A spec the plan could not
// foresee (one chosen from another run's numbers) or that a direct
// Fig*Data/Ext*Data call asks for is simulated inline, serially.
// Verification failures are returned as errors: a figure must never be
// built from wrong numerics.
func (s *Session) result(sp runspec.RunSpec) (*core.Result, error) {
	sp = sp.Normalize()
	if s.recording {
		s.planned = append(s.planned, sp)
		return &core.Result{}, nil
	}
	if res, ok := s.lookup(sp); ok {
		return res, nil
	}
	res, err := sp.RunObserved(s.cfg.Audit, s.observersFor(sp)...)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	s.store(sp, res)
	s.progressLine("ran", sp, res)
	return res, nil
}

// sequential returns the one-task baseline run for a kernel.
func (s *Session) sequential(kernel string) (*core.Result, error) {
	return s.result(s.spec(kernel, core.ModeSequential, 0, 1, false, false))
}

// single returns the single-mode run at the given machine size.
func (s *Session) single(kernel string, cmps int) (*core.Result, error) {
	return s.result(s.spec(kernel, core.ModeSingle, 0, cmps, false, false))
}

// double returns the double-mode run at the given machine size.
func (s *Session) double(kernel string, cmps int) (*core.Result, error) {
	return s.result(s.spec(kernel, core.ModeDouble, 0, cmps, false, false))
}

// slip returns a slipstream run.
func (s *Session) slip(kernel string, ar core.ARSync, cmps int, tl, si bool) (*core.Result, error) {
	return s.result(s.spec(kernel, core.ModeSlipstream, ar, cmps, tl, si))
}

// bestARSync returns the A-R policy with the best prefetch-only slipstream
// performance for a kernel at the given machine size (used by Figure 6,
// which plots "the best A-R synchronization method").
func (s *Session) bestARSync(kernel string, cmps int) (core.ARSync, error) {
	best := core.OneTokenLocal
	var bestCycles int64 = 1 << 62
	for _, ar := range core.ARSyncs {
		res, err := s.slip(kernel, ar, cmps, false, false)
		if err != nil {
			return best, err
		}
		if res.Cycles < bestCycles {
			bestCycles = res.Cycles
			best = ar
		}
	}
	return best, nil
}

// RunFigures plans, executes, and renders the figures with the given
// tags, in registry (paper) order regardless of argument order.
func (s *Session) RunFigures(tags ...string) error {
	reg := Figures()
	known := make(map[string]bool, len(reg))
	for _, f := range reg {
		known[f.Tag] = true
	}
	want := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if !known[tag] {
			return fmt.Errorf("harness: unknown figure tag %q", tag)
		}
		want[tag] = true
	}
	var selected []Figure
	for _, f := range reg {
		if want[f.Tag] {
			selected = append(selected, f)
		}
	}

	render := func(into *Session) error {
		for _, f := range selected {
			if err := f.Render(into); err != nil {
				return fmt.Errorf("harness: %s: %w", f.Tag, err)
			}
		}
		return nil
	}
	if err := s.Execute(s.plan(render)); err != nil {
		return err
	}
	return render(s)
}

// All renders every table and figure in paper order, followed by the
// Section 6 extension studies.
func (s *Session) All() error {
	return s.RunFigures(Tags()...)
}

// observedSpecs returns the specs with observation data in a canonical
// order: sorted by their JSON encoding, which (unlike String) covers every
// field including Machine. The order — and therefore every exporter's
// output — is byte-identical at any worker count.
func (s *Session) observedSpecs() []runspec.RunSpec {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	type keyed struct {
		sp  runspec.RunSpec
		key string
	}
	ks := make([]keyed, 0, len(s.tracers))
	//simlint:ordered keys are sorted below before any output is derived
	for sp := range s.tracers {
		b, err := json.Marshal(sp)
		if err != nil {
			// RunSpec is plain data; Marshal cannot fail on it.
			panic(err)
		}
		ks = append(ks, keyed{sp, string(b)})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	specs := make([]runspec.RunSpec, len(ks))
	for i, k := range ks {
		specs[i] = k.sp
	}
	return specs
}

// WriteTrace writes one merged Chrome trace-event JSON document covering
// every run the session simulated under Config.Observe, one trace process
// per run. Call it after the figures complete.
func (s *Session) WriteTrace(w io.Writer) error {
	specs := s.observedSpecs()
	runs := make([]*obs.ChromeTrace, len(specs))
	s.obsMu.Lock()
	for i, sp := range specs {
		tr := s.tracers[sp]
		tr.Pid = i + 1
		runs[i] = tr
	}
	s.obsMu.Unlock()
	return obs.WriteChrome(w, runs...)
}

// mergedMetrics folds every simulated run's registry into one.
func (s *Session) mergedMetrics() *obs.Metrics {
	merged := &obs.Metrics{}
	specs := s.observedSpecs()
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for _, sp := range specs {
		merged.Merge(s.metrics[sp])
	}
	return merged
}

// WriteMetrics writes the merged metrics of every observed run as
// deterministic text (one counter or histogram per line, sorted by name).
func (s *Session) WriteMetrics(w io.Writer) error {
	return s.mergedMetrics().WriteText(w)
}

// WriteMetricsCSV writes the merged metrics of every observed run as CSV.
func (s *Session) WriteMetricsCSV(w io.Writer) error {
	return s.mergedMetrics().WriteCSV(w)
}
