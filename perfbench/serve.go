package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

const (
	replicas        = 3
	loadClients     = 2 // closed-loop clients: one per host CPU
	requestsPerPass = 4000
	coldPerPass     = 200 // 5% of a pass
	zipfS           = 1.2

	// tracedStream offsets the stream index of traced passes, so the first
	// traced pass has the same inputs whatever the untraced half ran.
	tracedStream = 1000
)

// serveModes are the execution modes of the served specs: single mode and
// slipstream with transparent loads and self-invalidation.
var serveModes = []runspec.RunSpec{
	{Mode: core.ModeSingle},
	{Mode: core.ModeSlipstream, TransparentLoads: true, SelfInvalidate: true},
}

// serveSpec returns the tiny spec of kernel under mode m on cmps CMPs.
func serveSpec(kernel string, p kernels.Params, m runspec.RunSpec, cmps int) runspec.RunSpec {
	m.Kernel, m.Params, m.Size, m.CMPs = kernel, p, kernels.Tiny, cmps
	return m.Normalize()
}

// hotSpecs are the 52 specs the Zipf draws pick from, hottest first: every
// workload × both modes × {2, 4} CMPs. The ranking is fixed, so the seed
// changes the draws and the cold specs but not which specs are hot.
func hotSpecs() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.AllNames() {
		for _, m := range serveModes {
			for _, cmps := range []int{2, 4} {
				specs = append(specs, serveSpec(name, "", m, cmps))
			}
		}
	}
	return specs
}

// request is one entry of the request stream: a hot spec's index, or -1
// for a cold spec.
type request struct {
	spec runspec.RunSpec
	hot  int
}

// stream returns pass's requests: Zipf draws over the hot specs with
// coldPerPass cold SYNTH specs at seeded positions, spread evenly over the
// serve modes and CMP counts. A cold spec's SYNTH seed is unique to its
// (pass, position), so it never repeats in a run.
func stream(seed int64, hot []runspec.RunSpec, pass int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	cold := make(map[int]int, coldPerPass) // position → mode and CMP choice
	for j, i := range rng.Perm(requestsPerPass)[:coldPerPass] {
		cold[i] = j
	}
	base := uint32(seed) * 2654435761
	reqs := make([]request, requestsPerPass)
	for i := range reqs {
		j, ok := cold[i]
		if !ok {
			h := int(zipf.Uint64())
			reqs[i] = request{spec: hot[h], hot: h}
			continue
		}
		m := serveModes[j%len(serveModes)]
		cmps := 2 << (j / len(serveModes) % 2)
		p := kernels.Params(fmt.Sprintf("seed=%d", base+uint32(pass*requestsPerPass+i)))
		reqs[i] = request{spec: serveSpec("SYNTH", p, m, cmps), hot: -1}
	}
	return reqs
}

// httpServer is one listener serving a handler on the loopback interface.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// cluster is one set-up of serve-zipf: replicas, gateway, the load client,
// and the hot specs with their local reference results.
type cluster struct {
	dir      string
	servers  []*service.Server
	backends []*httpServer
	front    *httpServer
	gwTrips  *transport // gateway → replica round trips
	load     *transport // client → gateway round trips
	client   *client.Client
	gateway  *service.Gateway

	hot  []runspec.RunSpec
	refs [][]byte // JSON of each hot spec's local core.Run result
}

// startCluster sets serve-zipf up in dir: local references for the hot
// specs, three replicas with pre-seeded caches behind a gateway, and one
// warm-up request per hot spec. tr, when non-nil, is wired into every
// layer boundary (it records only while on).
func startCluster(dir string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir, hot: hotSpecs()}
	results := make([]*core.Result, len(c.hot))
	c.refs = make([][]byte, len(c.hot))
	for i, sp := range c.hot {
		res, err := sp.Run()
		if err == nil && res.VerifyErr != nil {
			err = res.VerifyErr
		}
		if err != nil {
			return nil, fmt.Errorf("local reference %v: %w", sp, err)
		}
		if c.refs[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
		results[i] = res
	}

	urls := make([]string, replicas)
	for i := range urls {
		cache, err := runcache.Open(filepath.Join(dir, fmt.Sprintf("replica%d", i)), core.SimVersion)
		if err != nil {
			c.close()
			return nil, err
		}
		for j, sp := range c.hot {
			if err := cache.Store(sp, results[j]); err != nil {
				c.close()
				return nil, fmt.Errorf("pre-seeding replica %d: %w", i, err)
			}
		}
		var store runcache.Store = cache
		if tr != nil {
			store = timedStore{inner: cache, tr: tr}
		}
		s := service.New(service.Config{Workers: 1, Cache: store})
		c.servers = append(c.servers, s)
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.handler("replica", h)
		}
		b, err := listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, b)
		urls[i] = b.url
	}

	c.gwTrips = &transport{base: newHTTPTransport(), tr: tr, name: "fanout"}
	g, err := service.NewGateway(service.GatewayConfig{Replicas: urls, HTTPClient: &http.Client{Transport: c.gwTrips}})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gateway = g
	var h http.Handler = g.Handler()
	if tr != nil {
		h = tr.handler("gateway", h)
	}
	if c.front, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	c.load = &transport{base: newHTTPTransport(), tr: tr, name: "client.trip"}
	c.client = client.New(c.front.url)
	c.client.HTTPClient = &http.Client{Transport: c.load}

	// Warm-up: every hot spec once, so the memo holds them all and the
	// timed phase starts in steady state.
	for i, sp := range c.hot {
		res, cached, err := c.client.Run(context.Background(), sp)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up %v: %w", sp, err)
		}
		got, err := json.Marshal(res)
		if err != nil || !bytes.Equal(got, c.refs[i]) || !cached {
			c.close()
			return nil, fmt.Errorf("warm-up %v: served result is not the pre-seeded local reference", sp)
		}
	}
	return c, nil
}

func newHTTPTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 2 * loadClients
	return t
}

// close stops every server and removes the cluster's cache directories.
func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	for _, t := range []*transport{c.gwTrips, c.load} {
		if t != nil {
			t.base.(*http.Transport).CloseIdleConnections()
		}
	}
	for _, b := range c.backends {
		b.close()
	}
	for _, s := range c.servers {
		s.StartDrain()
		s.Wait()
	}
	os.RemoveAll(c.dir)
}

// counters sums a service counter over the replicas.
func (c *cluster) counter(name string) int64 {
	var n int64
	for _, s := range c.servers {
		n += s.CounterValue(name)
	}
	return n
}

// serviceCounters are the replica counters read around every pass.
var serviceCounters = []string{"run.count", "engine.events", "service.memo.hit", "service.cache.hit", "service.cache.miss"}

// servePass is one pass's outcome.
type servePass struct {
	wall     time.Duration
	alloc    uint64
	gc       uint64
	lat      []float64 // ms, successful requests
	cold     []coldResult
	counters map[string]int64 // deltas of serviceCounters
}

// coldResult is a served cold result awaiting verification.
type coldResult struct {
	spec runspec.RunSpec
	res  *core.Result
}

// pass sends reqs through the gateway from loadClients closed-loop
// clients, checking hot results against their references as they arrive.
func (c *cluster) pass(reqs []request, rep *report, tr *tracer) servePass {
	before := make(map[string]int64)
	probe := rep.host.measure()
	for _, n := range serviceCounters {
		before[n] = c.counter(n)
	}
	h0 := readHost()
	start := time.Now()

	type clientOut struct {
		lat                      []float64
		cold                     []coldResult
		failed, wrong, hotMisses int64
	}
	outs := make([]clientOut, loadClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(loadClients)
	for w := 0; w < loadClients; w++ {
		go func(out *clientOut) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				ctx := context.Background()
				var me *liveSpan
				if tr != nil && tr.on.Load() {
					me = &liveSpan{trace: tr.newID()}
					me.id = me.trace
					ctx = context.WithValue(ctx, spanKey{}, me)
				}
				t0 := time.Now()
				resp, _, err := c.client.Submit(ctx, api.RunRequest{Specs: []runspec.RunSpec{r.spec}})
				lat := time.Since(t0)
				if me != nil {
					tr.record(span{Trace: me.trace, ID: me.id, Name: "client", Child: me.child.Load()}, t0)
				}
				if err != nil {
					out.failed++
					fmt.Fprintf(os.Stderr, "perfbench: request %v: %v\n", r.spec, err)
					continue
				}
				out.lat = append(out.lat, ms(lat))
				res := resp.Results[0]
				if r.hot < 0 {
					out.cold = append(out.cold, coldResult{r.spec, res})
					continue
				}
				if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, c.refs[r.hot]) {
					out.wrong++
					continue
				}
				if !resp.Cached[0] {
					out.hotMisses++
				}
			}
		}(&outs[w])
	}
	wg.Wait()

	wall := time.Since(start)
	h1 := readHost()
	// The pass spans a second or more, so scale by the host speed
	// averaged over a probe on either side of it.
	s := probe.mean(rep.host.measure())
	p := servePass{wall: s.scale(wall), counters: make(map[string]int64)}
	p.alloc, p.gc = h1.allocBytes-h0.allocBytes, h1.gcCycles-h0.gcCycles
	for _, n := range serviceCounters {
		p.counters[n] = c.counter(n) - before[n]
	}
	var hotMisses int64
	for _, o := range outs {
		for _, l := range o.lat {
			p.lat = append(p.lat, l*float64(s))
		}
		p.cold = append(p.cold, o.cold...)
		rep.Attempted += int64(len(o.lat)) + o.failed
		rep.Failed += o.failed + o.wrong
		hotMisses += o.hotMisses
		if o.wrong > 0 {
			rep.fail("%d hot results differ from their local core.Run", o.wrong)
		}
	}
	if hotMisses > 0 {
		rep.fail("%d hot requests were not served from cache", hotMisses)
	}
	if got := p.counters["run.count"]; got != coldPerPass {
		rep.fail("a pass simulated %d runs, want its %d cold requests", got, coldPerPass)
	}
	return p
}

// phase repeats passes with stream indices from first on for budget.
func (c *cluster) phase(budget time.Duration, seed int64, first int, rep *report, tr *tracer) []servePass {
	var passes []servePass
	timedPhase(budget, func() {
		passes = append(passes, c.pass(stream(seed, c.hot, first+len(passes)), rep, tr))
	})
	return passes
}

// verifyCold compares every served cold result with a local core.Run of
// its spec, outside the timed phase, on loadClients goroutines.
func verifyCold(passes []servePass, rep *report) error {
	var cold []coldResult
	for _, p := range passes {
		cold = append(cold, p.cold...)
	}
	wrong := make([]bool, len(cold))
	errs := make([]error, len(cold))
	var wg sync.WaitGroup
	wg.Add(loadClients)
	for w := 0; w < loadClients; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cold); i += loadClients {
				res, err := cold[i].spec.Run()
				if err != nil {
					errs[i] = err
					continue
				}
				want, err := json.Marshal(res)
				if err != nil {
					errs[i] = err
					continue
				}
				got, err := json.Marshal(cold[i].res)
				wrong[i] = err != nil || res.VerifyErr != nil || !bytes.Equal(got, want)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("local reference of a cold spec: %w", err)
	}
	n := 0
	for _, w := range wrong {
		if w {
			n++
		}
	}
	if n > 0 {
		rep.Failed += int64(n)
		rep.fail("%d cold results differ from their local core.Run", n)
	}
	return nil
}

// coldCounts sums the simulated statistics of a pass's cold results.
func (p *servePass) coldCounts() runCounts {
	var c runCounts
	for _, r := range p.cold {
		c.add(countsOf(r.res))
	}
	return c
}

// runServe runs serve-zipf.
func runServe(cfg config) (*report, error) {
	work := filepath.Join(cfg.dir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var host *hostSpeed // a traced run keeps raw host times
	if !cfg.trace {
		host = newHostSpeed()
	}
	var c *cluster
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		before := host.measure()
		start := time.Now()
		nc, err := startCluster(filepath.Join(work, fmt.Sprint(i)), tr)
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		setups = append(setups, before.mean(host.measure()).scale(took).Seconds())
		if c != nil {
			for j := range nc.refs {
				if !bytes.Equal(nc.refs[j], c.refs[j]) {
					return nil, fmt.Errorf("local reference of %v differs between set-ups", nc.hot[j])
				}
			}
		}
		c = nc
	}
	defer c.close()

	rep := newReport(cfg.trace)
	rep.host = host
	if !cfg.trace {
		passes := c.phase(cfg.budget, cfg.seed, 0, rep, nil)
		if err := verifyCold(passes, rep); err != nil {
			return nil, err
		}
		var walls, nsPerAccess, allocs, lat []float64
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			if acc := p.coldCounts().accesses; acc > 0 {
				nsPerAccess = append(nsPerAccess, float64(p.wall.Nanoseconds())/float64(acc))
			}
			allocs = append(allocs, float64(p.alloc)/1e6)
			lat = append(lat, p.lat...)
		}
		rep.set("setup_s", median(setups))
		rep.set("wall_s", median(walls))
		rep.set("ns_per_access", median(nsPerAccess))
		rep.set("alloc_mb", median(allocs))
		rep.set("peak_rss_mb", peakRSSMB())
		rep.set("req_per_s", requestsPerPass/median(walls))
		rep.set("req_p50_ms", quantile(lat, 0.5))
		rep.set("req_p99_ms", quantile(lat, 0.99))
		return rep, nil
	}

	plain := c.phase(cfg.budget/2, cfg.seed, 0, rep, tr)
	rehash0 := c.gateway.CounterValue("gateway.rehash")
	rejected0 := c.gateway.CounterValue("gateway.rejected.backpressure") + c.gateway.CounterValue("gateway.rejected.upstream")
	trips0 := c.load.trips.Load()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := c.phase(cfg.budget/2, cfg.seed, tracedStream, rep, tr)
	tr.on.Store(false)
	prof.stop()
	if err := verifyCold(append(plain, traced...), rep); err != nil {
		return nil, err
	}

	var plainWall, tracedWall, gcs []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		gcs = append(gcs, float64(p.gc))
	}
	first := traced[0]
	rep.setLayerCounts(first.coldCounts())
	rep.set("sim.events", float64(first.counters["engine.events"]))
	rep.set("obs.traced_overhead_pct", 100*(median(tracedWall)/median(plainWall)-1))
	rep.set("gc.cycles", median(gcs))

	n := float64(len(traced))
	rep.set("runcache.load_calls", float64(tr.count("runcache.load", "*"))/n)
	rep.set("runcache.load_hits", float64(tr.count("runcache.load", "hit"))/n)
	rep.set("runcache.load_p50_us", 1e3*median(tr.durations("runcache.load", "*", false)))
	rep.set("runcache.store_calls", float64(tr.count("runcache.store", "*"))/n)
	rep.set("runcache.store_p50_us", 1e3*median(tr.durations("runcache.store", "*", false)))

	rep.set("service.replica_p50_ms", median(tr.durations("replica", "*", false)))
	rep.set("service.replica_miss_p50_ms", median(tr.durations("replica", api.CacheMiss, false)))
	memo, hit, miss := first.counters["service.memo.hit"], first.counters["service.cache.hit"], first.counters["service.cache.miss"]
	if all := memo + hit + miss; all > 0 {
		rep.set("service.hit_ratio", float64(memo+hit)/float64(all))
	}
	rep.set("service.memo.hit", float64(memo))
	rep.set("service.cache.hit", float64(hit))
	rep.set("service.cache.miss", float64(miss))
	rep.set("run.count", float64(first.counters["run.count"]))

	rep.set("gateway.self_p50_ms", median(tr.durations("gateway", "*", true)))
	rep.set("gateway.fanout_p50_ms", median(tr.durations("fanout", "*", false)))
	rep.set("gateway.rehash", float64(c.gateway.CounterValue("gateway.rehash")-rehash0))
	rep.set("gateway.rejected", float64(c.gateway.CounterValue("gateway.rejected.backpressure")+
		c.gateway.CounterValue("gateway.rejected.upstream")-rejected0))
	rep.set("client.retries", float64(c.load.trips.Load()-trips0-int64(len(traced)*requestsPerPass)))

	shares, err := prof.cpuShares(cfg.dir)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		rep.set(name, v)
	}
	if err := tr.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	return rep, nil
}
