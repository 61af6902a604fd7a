// Package service is the serving core of slipsimd: a long-lived server
// that accepts RunSpec batches, admits them into one bounded job queue,
// and simulates each admitted spec on a fixed worker pool —
// turning the deterministic one-shot simulator into an always-on service
// with queueing, caching, backpressure, and graceful drain. The same
// package provides Gateway, which consistent-hashes specs across a static
// list of such servers so the properties below hold fleet-wide.
//
// The design leans on one property of the compute core: a simulation is a
// pure function of its normalized RunSpec. That purity makes three serving
// optimizations sound without any invalidation logic:
//
//   - In-flight request coalescing: submissions of a spec equal to one
//     already queued or running attach to that flight instead of enqueuing
//     new work; when it finishes, every waiter receives the same encoded
//     result. The flight table holds only queued and running flights: a
//     flight leaves it when it publishes, done, failed or canceled alike.
//   - Read-through persistent caching: admission probes the
//     runcache.Store before queueing — the only probe a spec gets — and
//     fresh results are stored back, so daemon restarts and CLI runs
//     sharing the directory share one result store. The store is a
//     daemon's only lasting memory of results; without one, a repeat
//     simulates again.
//   - A bounded cache of hot results: a spec the store answered is kept,
//     encoded, in a resultCache of at most cacheBytes that evicts the
//     least recently used entry, so its repeats skip the probe and the
//     encoding. A freshly simulated spec does not enter it, so one-off
//     specs never push out hot ones, and what a daemon keeps does not grow
//     with the distinct specs it serves.
//
// Each process encodes a result once: a worker when it simulates, the
// admission probe when the store answers. Waiters, the cache and the
// gateway pass the bytes on as they are.
//
// Admission control is strict and cache-aware: cached and coalesced
// submissions are always admitted (they consume no queue slot), while a
// batch needing N fresh simulations is admitted only if all N fit in the
// queue — otherwise the whole batch is rejected with ErrQueueFull so a
// client never blocks half-admitted, and the rejection changes nothing:
// no counter but service.rejected.queue moves, and neither the flight
// table nor the cache gains an entry. A draining server rejects every new
// submission with ErrDraining but finishes all accepted jobs.
//
// The server is not simulation code: it may use goroutines, channels, and
// wall-clock time freely (simlint's nondeterminism rules scope to the
// simulation packages). Determinism re-enters at the edges: results are
// bit-identical to local runs, and /metrics renders through the sorted,
// byte-stable obs.Metrics text format.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"slipstream/internal/core"
	"slipstream/internal/obs"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrent simulations. Zero or negative selects
	// runtime.NumCPU().
	Workers int

	// QueueDepth bounds jobs accepted but not yet running. Zero or
	// negative selects DefaultQueueDepth. Submissions needing more fresh
	// simulations than the queue has free slots are rejected with
	// ErrQueueFull.
	QueueDepth int

	// Cache, when set, is probed read-through at admission and receives
	// every freshly simulated result. A runcache.Cache directory shares
	// results with the CLIs. Without it the server keeps no result beyond
	// its flight: a repeat simulates again, while duplicates of a queued
	// or running spec still coalesce.
	Cache runcache.Store

	// Audit enables the runtime invariant auditor on every simulation.
	Audit bool
}

// DefaultQueueDepth is the job-queue bound when Config.QueueDepth is unset.
const DefaultQueueDepth = 64

// Admission errors. The HTTP layer maps these to 429 (ErrQueueFull) and
// 503 (ErrDraining).
var (
	// ErrQueueFull reports that the job queue lacks room for every fresh
	// simulation a submission needs.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports that the server has stopped admitting work.
	ErrDraining = errors.New("service: draining, not admitting new jobs")
)

// jobState is a flight's lifecycle position.
type jobState uint8

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCanceled
	numJobStates
)

// flight is one admitted simulation: a unique normalized spec moving
// through queued → running → {done, failed, canceled}, or straight from
// queued to canceled when a hard stop finds it still queued. Every
// submission of an equal spec made while it is queued or running shares
// it. It leaves the flight table when it publishes and is garbage once
// its waiters have their answer.
type flight struct {
	spec runspec.RunSpec

	// Guarded by Server.mu until done is closed; fixed after.
	state jobState
	res   []byte // the result's JSON, once done
	err   error

	done chan struct{} // closed on reaching a terminal state
}

// answer is one submitted spec's resolution: the encoded result itself
// for a cache or store hit, or the flight that will publish it.
type answer struct {
	res []byte
	f   *flight
	hit bool // answered without simulating
}

// recentStored is how many of the latest specs stored by workers a server
// remembers; see storedSinceLocked.
const recentStored = 64

// Server owns the queue, the worker pool, the flight table, the result
// cache, and the service metrics registry.
type Server struct {
	cfg      Config
	baseCtx  context.Context
	hardStop context.CancelFunc
	cache    *resultCache

	mu       sync.Mutex
	flights  map[runspec.RunSpec]*flight // queued and running flights
	queue    chan *flight
	draining bool
	counts   [numJobStates]int64
	metrics  obs.Metrics

	// stored counts the results workers have written to the store, and
	// recent holds the latest of their specs, stored%recentStored last.
	stored uint64
	recent [recentStored]runspec.RunSpec

	wg sync.WaitGroup

	// runStarted, when set by a test, is called on the worker goroutine
	// after a flight turns running and before it simulates, so tests can
	// hold a job deterministically in flight. A hard stop that comes while
	// it holds a flight does not keep the flight from simulating.
	runStarted func(runspec.RunSpec)
}

// SetRunStarted installs the runStarted test hook. It must be called
// before any submission; the hook runs on worker goroutines.
func (s *Server) SetRunStarted(fn func(runspec.RunSpec)) { s.runStarted = fn }

// New starts a server: its workers are live and accepting until Drain or
// Close.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		baseCtx:  ctx,
		hardStop: cancel,
		cache:    newResultCache(cacheBytes),
		flights:  make(map[runspec.RunSpec]*flight),
		queue:    make(chan *flight, cfg.QueueDepth),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// plan is a batch resolved under s.mu: an answer for the first
// submission of each distinct spec, and the distinct specs that need a
// new flight, that the store answered, or that need a store probe before
// they can be resolved.
type plan struct {
	answers   []answer
	fresh     []int // first indices of specs that need a new flight
	storeHits []int // first indices of specs the store answered
	probe     []runspec.RunSpec
	joins     int64 // specs joining a queued or running flight
	cacheHits int64 // specs the cache answered
}

// probeResult is one store probe's verdict on a spec: its encoded result
// on a hit, nil on a miss, and the stored count when the probe began.
type probeResult struct {
	res    []byte
	stored uint64
}

// submit validates and admits a batch. On success every spec has an
// answer; the caller waits on the done channel of each answer's flight.
// Validation errors are reported before any admission, so a bad batch
// never occupies queue slots.
//
// The store probe here is the only one a spec gets: a worker simulates a
// queued flight without probing again. It runs with s.mu released:
// Store.Load is a disk read, and holding the server mutex across it would
// serialize every endpoint, worker transition, and drain on one
// submission's I/O. So submit plans the batch under the lock, probes what
// the plan could not resolve, and plans again, until nothing is left to
// probe. A flight can publish between two plans and leave the table, so
// a spec is fresh only if its probe missed and no worker stored its
// result since the probe began; otherwise it is probed again.
func (s *Server) submit(specs []runspec.RunSpec) ([]answer, error) {
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d (%v): %w", i, sp, err)
		}
	}

	// firsts[i] is the index of the first submission of spec i's
	// normalized spec: duplicates within a batch share its answer.
	norm := make([]runspec.RunSpec, len(specs))
	firsts := make([]int, len(specs))
	seen := make(map[runspec.RunSpec]int, len(specs))
	for i, sp := range specs {
		norm[i] = sp.Normalize()
		first, ok := seen[norm[i]]
		if !ok {
			first = i
			seen[norm[i]] = i
		}
		firsts[i] = first
	}

	probed := make(map[runspec.RunSpec]probeResult)
	var p plan
	s.mu.Lock()
	for {
		if s.draining {
			s.metrics.Count("service.rejected.drain", 1)
			s.mu.Unlock()
			return nil, ErrDraining
		}
		p = s.planLocked(norm, firsts, probed)
		if len(p.probe) == 0 {
			break
		}
		stored := s.stored
		s.mu.Unlock()
		corrupt := s.probeStore(p.probe, stored, probed)
		s.mu.Lock()
		if corrupt > 0 {
			s.metrics.Count("runcache.corrupt", corrupt)
		}
	}
	defer s.mu.Unlock()

	// Admission: the whole batch or none of it. Every send holds s.mu and
	// only workers receive, so the queue's free space can only grow while
	// s.mu is held: the sends below cannot block once this check passes.
	if len(p.fresh) > cap(s.queue)-len(s.queue) {
		s.metrics.Count("service.rejected.queue", 1)
		return nil, ErrQueueFull
	}
	s.countLocked("service.coalesced", p.joins)
	s.countLocked("service.memo.hit", p.cacheHits)
	s.countLocked("service.cache.hit", int64(len(p.storeHits)))
	s.countLocked("service.cache.miss", int64(len(p.fresh)))
	for _, i := range p.storeHits {
		s.cache.add(norm[i], p.answers[i].res)
	}
	for _, i := range p.fresh {
		p.answers[i].f = s.admitLocked(norm[i])
	}
	for i, first := range firsts {
		p.answers[i] = p.answers[first]
	}
	s.metrics.Count("service.submissions", 1)
	s.metrics.Count("service.specs", int64(len(specs)))
	return p.answers, nil
}

// planLocked resolves the first submission of each distinct spec in
// turn: a join of its queued or running flight, a cache hit, a store hit
// among probed, a fresh flight, or a probe still to make. Callers hold
// mu.
func (s *Server) planLocked(norm []runspec.RunSpec, firsts []int, probed map[runspec.RunSpec]probeResult) plan {
	p := plan{answers: make([]answer, len(norm))}
	for i, sp := range norm {
		if firsts[i] != i {
			continue
		}
		if f, ok := s.flights[sp]; ok {
			p.answers[i].f = f
			p.joins++
			continue
		}
		if res, ok := s.cache.get(sp); ok {
			p.answers[i] = answer{res: res, hit: true}
			p.cacheHits++
			continue
		}
		if s.cfg.Cache == nil {
			p.fresh = append(p.fresh, i)
			continue
		}
		switch pr, ok := probed[sp]; {
		case ok && pr.res != nil:
			p.answers[i] = answer{res: pr.res, hit: true}
			p.storeHits = append(p.storeHits, i)
		case ok && !s.storedSinceLocked(sp, pr.stored):
			p.fresh = append(p.fresh, i)
		default:
			p.probe = append(p.probe, sp)
		}
	}
	return p
}

// probeStore loads each spec from the store with s.mu released and
// records the verdict in probed, stamped with stored, the count of stored
// results when the probe began. A hit is encoded here: the one encoding
// its result gets in this process. A Load error is still a miss, but it
// must never be silent: probeStore returns how many it met, for
// runcache.corrupt.
func (s *Server) probeStore(specs []runspec.RunSpec, stored uint64, probed map[runspec.RunSpec]probeResult) (corrupt int64) {
	for _, sp := range specs {
		pr := probeResult{stored: stored}
		res, ok, err := s.cfg.Cache.Load(sp)
		if ok {
			pr.res, err = json.Marshal(res)
		}
		if err != nil {
			corrupt++
		}
		probed[sp] = pr
	}
	return corrupt
}

// storedSinceLocked reports whether a worker may have stored sp's result
// after the stored count read n, so that a probe of sp begun then may
// have missed a result the store now holds. When more than recentStored
// results were stored since, it cannot tell and says so. Callers hold mu.
func (s *Server) storedSinceLocked(sp runspec.RunSpec, n uint64) bool {
	if s.stored-n > recentStored {
		return true
	}
	for i := n; i < s.stored; i++ {
		if s.recent[i%recentStored] == sp {
			return true
		}
	}
	return false
}

// admitLocked makes the flight for sp, enters it in the flight table and
// the per-state counts, and queues it: the one place a flight is made.
// Callers hold mu and have checked that the queue has room.
func (s *Server) admitLocked(sp runspec.RunSpec) *flight {
	f := &flight{spec: sp, state: jobQueued, done: make(chan struct{})}
	s.flights[sp] = f
	s.counts[jobQueued]++
	s.queue <- f
	return f
}

// countLocked adds n to the named counter, leaving a counter that
// would read 0 out of /metrics. Callers hold mu.
func (s *Server) countLocked(name string, n int64) {
	if n > 0 {
		s.metrics.Count(name, n)
	}
}

// transitionLocked moves f to state st, keeping the per-state counts.
// Callers hold mu.
func (s *Server) transitionLocked(f *flight, st jobState) {
	s.counts[f.state]--
	s.counts[st]++
	f.state = st
}

// worker runs queued flights until the queue is closed (drain) and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.runFlight(f)
	}
}

// runFlight simulates one flight and publishes its terminal state.
// core.Run cannot be interrupted, so the hard stop is checked on both
// sides of the run: a flight still queued when it came never runs, and a
// result finished after it is discarded, never stored. Admission made
// the spec's store probe. The run is unobserved, since any observer puts
// every access on the bus path (DESIGN §11), and run.count counts it
// whatever its verdict.
func (s *Server) runFlight(f *flight) {
	var enc []byte
	var stored, storeFailed bool
	err := s.baseCtx.Err()
	ran := err == nil
	if ran {
		s.mu.Lock()
		s.transitionLocked(f, jobRunning)
		s.mu.Unlock()
		if s.runStarted != nil {
			s.runStarted(f.spec)
		}
		var res *core.Result
		res, err = f.spec.RunObserved(s.cfg.Audit)
		if ctxErr := s.baseCtx.Err(); ctxErr != nil {
			err = ctxErr
		}
		if err == nil {
			enc, err = json.Marshal(res) // every waiter shares these bytes
		}
		if err == nil && s.cfg.Cache != nil {
			storeFailed = s.cfg.Cache.Store(f.spec, res) != nil
			stored = !storeFailed
		}
	}

	// Publish the terminal state in one critical section: result fields,
	// counters, the state transition and the flight's exit from the table
	// become visible together, and the done channel closes after, so
	// waiters see a complete flight.
	s.mu.Lock()
	if ran {
		s.metrics.Count("run.count", 1)
	}
	if storeFailed {
		s.metrics.Count("service.cache.storeerr", 1)
	}
	if stored {
		s.recent[s.stored%recentStored] = f.spec
		s.stored++
	}
	// A flight leaves the table whatever its verdict: the store keeps a
	// result, and a repeat of a failed or canceled spec simulates again.
	delete(s.flights, f.spec)
	st := jobDone
	switch {
	case err == nil:
		f.res = enc
		s.metrics.Count("service.jobs.done", 1)
	case errors.Is(err, context.Canceled):
		// Hard stop: environmental, retryable. A run error already names
		// the spec; a context error does not.
		st = jobCanceled
		f.err = fmt.Errorf("%v: %w", f.spec, err)
		s.metrics.Count("service.jobs.canceled", 1)
	default:
		st = jobFailed
		f.err = err
		s.metrics.Count("service.jobs.failed", 1)
	}
	s.transitionLocked(f, st)
	s.mu.Unlock()
	close(f.done)
}

// StartDrain stops admitting new submissions; accepted jobs (queued and
// running) continue to completion. Safe to call more than once.
func (s *Server) StartDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers exit once the accepted backlog drains
	}
	s.mu.Unlock()
}

// Wait blocks until every worker has exited. Meaningful after StartDrain
// or Close; a serving (non-draining) server never releases Wait.
func (s *Server) Wait() { s.wg.Wait() }

// Close hard-stops the server: a queued flight never runs, and a running
// one finishes its simulation but is canceled, its result discarded,
// never stored. It implies StartDrain and returns once workers exit.
func (s *Server) Close() {
	s.hardStop()
	s.StartDrain()
	s.Wait()
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Idle reports whether no accepted job is queued or running.
func (s *Server) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[jobQueued] == 0 && s.counts[jobRunning] == 0
}

// CounterValue returns one service metrics counter (for tests and smoke
// checks).
func (s *Server) CounterValue(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics.Counter(name)
}
