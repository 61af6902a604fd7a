package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/obs"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
)

// span is one timed interval at a layer boundary. Spans of one served
// request share Trace; Parent names the span that caused this one.
type span struct {
	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
	Child  int64  `json:"child_ns,omitempty"` // time covered by child round trips
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory while it is on; the traced run writes them
// out when it ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record appends a span starting at start and ending now, if tracing is on.
func (t *tracer) record(s span, start time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s.Start = int64(start.Sub(t.epoch))
	s.Dur = int64(time.Since(start))
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans named name whose
// note is note (any note when note is "*"), less their child time when
// self is set.
func (t *tracer) durations(name, note string, self bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || (note != "*" && s.Note != note) {
			continue
		}
		d := s.Dur
		if self {
			d -= s.Child
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// count returns how many spans are named name with note note ("*": any).
func (t *tracer) count(name, note string) int {
	return len(t.durations(name, note, false))
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timedKernel wraps a kernel to time its Setup and Verify, which core.Run
// calls around the simulation proper.
type timedKernel struct {
	core.Kernel
	tr     *tracer
	parent uint64
	setup  time.Duration
	verify time.Duration
}

func (k *timedKernel) Setup(p *core.Program) {
	start := time.Now()
	k.Kernel.Setup(p)
	k.setup = time.Since(start)
	k.tr.record(span{Parent: k.parent, Name: "kernel.setup", Note: k.Name()}, start)
}

func (k *timedKernel) Verify(p *core.Program) error {
	start := time.Now()
	err := k.Kernel.Verify(p)
	k.verify = time.Since(start)
	k.tr.record(span{Parent: k.parent, Name: "kernel.verify", Note: k.Name()}, start)
	return err
}

// stepCounter is an observer counting engine events (EvStep).
type stepCounter struct{ steps int64 }

func (c *stepCounter) Event(e *obs.Event) {
	if e.Kind == obs.EvStep {
		c.steps++
	}
}

// timedStore is a runcache.Store decorator recording a span per Load and
// Store.
type timedStore struct {
	inner runcache.Store
	tr    *tracer
}

func (s timedStore) Key(sp runspec.RunSpec) (string, error) { return s.inner.Key(sp) }

func (s timedStore) Len() int { return s.inner.Len() }

func (s timedStore) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	start := time.Now()
	res, ok, err := s.inner.Load(sp)
	note := "miss"
	if ok {
		note = "hit"
	}
	s.tr.record(span{Name: "runcache.load", Note: note}, start)
	return res, ok, err
}

func (s timedStore) Store(sp runspec.RunSpec, res *core.Result) error {
	start := time.Now()
	err := s.inner.Store(sp, res)
	s.tr.record(span{Name: "runcache.store"}, start)
	return err
}

// spanHeader carries "trace/parent" span ids from a traced caller to the
// next server, so replica spans join the request's trace.
const spanHeader = "X-Perfbench-Span"

// liveSpan is an open span carried in a request context; round trips made
// under it add their duration to child.
type liveSpan struct {
	trace, id uint64
	child     atomic.Int64
}

type spanKey struct{}

func spanFrom(ctx context.Context) *liveSpan {
	s, _ := ctx.Value(spanKey{}).(*liveSpan)
	return s
}

// handler wraps an HTTP handler with a span per request named name; the
// note is the response's cache disposition.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		me := &liveSpan{id: t.newID()}
		var parent uint64
		if tr, p, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			me.trace, _ = strconv.ParseUint(tr, 10, 64)
			parent, _ = strconv.ParseUint(p, 10, 64)
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, me)))
		t.record(span{
			Trace: me.trace, ID: me.id, Parent: parent, Name: name,
			Child: me.child.Load(), Note: w.Header().Get(api.CacheHeader),
		}, start)
	})
}

// transport wraps base with a span per round trip named name, measured
// until the response body is closed, and counts round trips.
type transport struct {
	base  http.RoundTripper
	tr    *tracer
	name  string
	trips atomic.Int64
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	parent := spanFrom(r.Context())
	if t.tr == nil || !t.tr.on.Load() || parent == nil {
		return t.base.RoundTrip(r)
	}
	id := t.tr.newID()
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", parent.trace, id))
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	done := func() {
		parent.child.Add(int64(time.Since(start)))
		t.tr.record(span{Trace: parent.trace, ID: id, Parent: parent.id, Name: t.name}, start)
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, hook: done}
	return resp, nil
}

// closeHook runs hook once when the body is closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	hook func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.hook)
	return err
}

// profile is a CPU profile kept in memory until the traced run ends.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

func (p *profile) stop() { pprof.StopCPUProfile() }

// gcRoots matches the runtime functions at the root of garbage-collector
// work; samples under them are cpu.gc.
const gcRoots = `runtime\.(gcBgMarkWorker|bgsweep|bgscavenge|gcAssistAlloc)`

// schedFuncs matches the runtime's scheduler, park/wake and channel
// functions: the goroutine handoff cost that cpu.sched reports.
var schedFuncs = regexp.MustCompile(`^runtime\.(chan|select|sellock|selunlock|gopark|goready|ready$|park_m|schedule|findRunnable|execute|gogo|mcall|gosched|goexit|runq|globrunq|wakep|startm|stopm|mPark|note|futex|lock2|unlock2|lockWithRank|unlockWithRank|casgstatus|send$|recv$|sendDirect|recvDirect|acquireSudog|releaseSudog|resetspinning|checkTimers|netpoll|procyield|osyield|usleep|handoffp|newproc|gfget|gfput|nanotime)`)

// shareRules map a function's self time to cpu.* metrics (a function can
// count towards several, e.g. cpu.memsys and cpu.memsys.cache_lookup).
var shareRules = []struct {
	metric string
	match  func(fn, pkg string) bool
}{
	{"cpu.sched", func(fn, _ string) bool { return schedFuncs.MatchString(fn) }},
	{"cpu.sim", func(_, pkg string) bool { return pkg == "slipstream/internal/sim" }},
	{"cpu.sim.calqueue", func(fn, pkg string) bool {
		return pkg == "slipstream/internal/sim" && strings.Contains(strings.ToLower(fn), "calqueue")
	}},
	{"cpu.memsys", func(_, pkg string) bool { return pkg == "slipstream/internal/memsys" }},
	{"cpu.memsys.cache_lookup", func(fn, _ string) bool {
		return fn == "slipstream/internal/memsys.(*Cache).set" || fn == "slipstream/internal/memsys.(*Cache).Lookup"
	}},
	{"cpu.core", func(_, pkg string) bool { return pkg == "slipstream/internal/core" }},
	{"cpu.kernels", func(_, pkg string) bool { return strings.HasPrefix(pkg, "slipstream/internal/kernels") }},
	{"cpu.obs", func(_, pkg string) bool { return pkg == "slipstream/internal/obs" }},
	{"cpu.runcache", func(_, pkg string) bool { return pkg == "slipstream/internal/runcache" }},
	{"cpu.json", func(_, pkg string) bool { return pkg == "encoding/json" }},
}

// funcPackage returns the import path of a symbol such as
// "slipstream/internal/memsys.(*Cache).Lookup".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares writes the profile into dir and sums its self time per layer
// with `go tool pprof`, as percentages of all samples. The pprof listings
// are kept beside the profile.
func (p *profile) cpuShares(dir string) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// Everything outside GC, listed per function, and the GC part alone.
	rest, err := pprofTop(path, "-ignore="+gcRoots)
	if err != nil {
		return nil, err
	}
	gc, err := pprofTop(path, "-focus="+gcRoots)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu_top.txt"), append(rest.text, gc.text...), 0o644); err != nil {
		return nil, err
	}
	if rest.total <= 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", path)
	}
	shares := map[string]float64{"cpu.gc": 100 * gc.shown / rest.total}
	for _, r := range shareRules {
		shares[r.metric] = 0
	}
	for fn, flat := range rest.flat {
		pkg := funcPackage(fn)
		for _, r := range shareRules {
			if r.match(fn, pkg) {
				shares[r.metric] += 100 * flat / rest.total
			}
		}
	}
	return shares, nil
}

// topListing is one parsed `go tool pprof -top` report, in ms.
type topListing struct {
	total float64            // all samples in the profile
	shown float64            // samples left after the filter
	flat  map[string]float64 // self time per function
	text  []byte
}

var (
	totalLine = regexp.MustCompile(`Total samples = ([0-9.]+)ms`)
	shownLine = regexp.MustCompile(`^Showing nodes accounting for ([0-9.]+)ms`)
)

// pprofTop runs `go tool pprof -top` on the profile with one filter flag
// and parses the per-function self times.
func pprofTop(path, filter string) (*topListing, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", filter, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", filter, err, stderr.Bytes())
	}
	l := &topListing{flat: make(map[string]float64), text: out}
	table := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := totalLine.FindStringSubmatch(line); m != nil {
			l.total, _ = strconv.ParseFloat(m[1], 64)
		}
		if m := shownLine.FindStringSubmatch(line); m != nil {
			l.shown, _ = strconv.ParseFloat(m[1], 64)
		}
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			table = true
			continue
		}
		if !table || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unparsable line %q", line)
		}
		l.flat[f[5]] += v
	}
	return l, nil
}
