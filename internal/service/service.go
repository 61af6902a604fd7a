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
//     new work; when it finishes, every waiter receives the same *Result.
//   - In-memory memoization: completed flights stay in the flight table
//     for the daemon's lifetime, so a spec ever simulated (or ever failed —
//     failures are deterministic too) is answered without re-running.
//   - Read-through persistent caching: admission probes the
//     runcache.Store before queueing — the only probe a spec gets — and
//     fresh results are stored back, so daemon restarts and CLI runs
//     sharing the directory share one result store.
//
// Admission control is strict and cache-aware: cached and coalesced
// submissions are always admitted (they consume no queue slot), while a
// batch needing N fresh simulations is admitted only if all N fit in the
// queue — otherwise the whole batch is rejected with ErrQueueFull so a
// client never blocks half-admitted. A draining server rejects every new
// submission with ErrDraining but finishes all accepted jobs.
//
// The server is not simulation code: it may use goroutines, channels, and
// wall-clock deadlines freely (simlint's nondeterminism rules scope to the
// simulation packages). Determinism re-enters at the edges: results are
// bit-identical to local runs, and /metrics renders through the sorted,
// byte-stable obs.Metrics text format.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

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
	// results with the CLIs.
	Cache runcache.Store

	// Audit enables the runtime invariant auditor on every simulation.
	Audit bool

	// DefaultTimeout is the per-job deadline applied when a request names
	// none; zero means no deadline.
	DefaultTimeout time.Duration

	// MaxTimeout caps request-supplied deadlines; zero means uncapped.
	MaxTimeout time.Duration
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

// terminal reports whether a flight in this state will never change again.
func (s jobState) terminal() bool { return s >= jobDone }

// flight is one admitted unit of work: a unique normalized spec moving
// through queued → running → {done, failed, canceled}, or admitted done
// when the store probe answered it. All submissions of an equal spec
// share one flight.
type flight struct {
	spec runspec.RunSpec
	// ctx carries the per-job deadline of a queued flight, counted from
	// admission (queue wait is part of the job's latency budget); cancel
	// releases its timer. A flight admitted done has neither.
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by Server.mu.
	state jobState
	res   *core.Result
	err   error

	done chan struct{} // closed on reaching a terminal state
}

// answers reports whether f, found in the flight table, can answer a new
// submission of its spec. A done or failed flight memoizes its verdict,
// since both are deterministic; a queued or running one is joined unless
// its deadline has passed, which dooms it to a canceled verdict and would
// time the new waiter out on a result that will never come. A canceled
// flight leaves the table when it publishes, so the table never offers
// one. Callers hold Server.mu.
func (f *flight) answers() bool {
	return f.state.terminal() || f.ctx.Err() == nil
}

// attach is one submission's view of one spec: the flight serving it and
// whether it was a cache/memo hit at attach time.
type attach struct {
	f   *flight
	hit bool
}

// Server owns the queue, the worker pool, the flight table, and the
// service metrics registry.
type Server struct {
	cfg      Config
	baseCtx  context.Context
	hardStop context.CancelFunc

	mu       sync.Mutex
	flights  map[runspec.RunSpec]*flight
	queue    chan *flight
	draining bool
	counts   [numJobStates]int64
	metrics  obs.Metrics

	wg sync.WaitGroup

	// runStarted, when set by a test, is called on the worker goroutine
	// after a flight turns running and before it simulates, so tests can
	// hold a job deterministically in flight.
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
		flights:  make(map[runspec.RunSpec]*flight),
		queue:    make(chan *flight, cfg.QueueDepth),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// probeCandidates returns, deduplicated and in batch order, the specs
// (already normalized) that the flight table cannot currently answer and
// a store probe therefore might. It reports draining so submit can reject
// before probing. The answer is advisory: submit re-resolves everything
// under the lock, so a flight admitted by a racing submission between the
// passes simply wins over this one's probe.
func (s *Server) probeCandidates(norm []runspec.RunSpec) (probe []runspec.RunSpec, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, true
	}
	seen := make(map[runspec.RunSpec]bool, len(norm))
	for _, sp := range norm {
		if seen[sp] {
			continue
		}
		seen[sp] = true
		if f, ok := s.flights[sp]; ok && f.answers() {
			continue // memo hit or coalesce join: no probe needed
		}
		probe = append(probe, sp)
	}
	return probe, false
}

// submit validates and admits a batch. On success every spec has an
// attach; the caller waits on each flight's done channel. Validation
// errors are reported before any admission, so a bad batch never
// occupies queue slots.
//
// The store probe here is the only one a spec gets: a worker simulates a
// queued flight without probing again. It runs with s.mu released:
// Store.Load is a disk read, and holding the server mutex across it would
// serialize every endpoint, worker transition, and drain on one
// submission's I/O.
func (s *Server) submit(specs []runspec.RunSpec, timeout time.Duration) ([]attach, error) {
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d (%v): %w", i, sp, err)
		}
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	norm := make([]runspec.RunSpec, len(specs))
	for i, sp := range specs {
		norm[i] = sp.Normalize()
	}

	// Pass 1 (locked): find the specs the flight table cannot answer.
	// Pass 2 (unlocked): probe the store for them. A Load error is still a
	// miss, but it must never be silent — count it as corrupt.
	probe, draining := s.probeCandidates(norm)
	probed := make(map[runspec.RunSpec]*core.Result, len(probe))
	var corrupt int64
	if s.cfg.Cache != nil && !draining {
		for _, sp := range probe {
			res, ok, err := s.cfg.Cache.Load(sp)
			if err != nil {
				corrupt++
			}
			if ok {
				probed[sp] = res
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if corrupt > 0 {
		s.metrics.Count("runcache.corrupt", corrupt)
	}
	if s.draining {
		s.metrics.Count("service.rejected.drain", 1)
		return nil, ErrDraining
	}

	// Pass 3 (locked): plan the batch before touching the queue: every
	// spec resolves to a memo hit, a coalesce join, a probed cache hit, or
	// a fresh flight. Fresh flights are admitted all-or-nothing.
	attaches := make([]attach, len(specs))
	batch := make(map[runspec.RunSpec]*flight) // nil for a fresh spec until it is admitted
	var fresh []runspec.RunSpec
	for i, sp := range norm {
		if f, ok := batch[sp]; ok { // duplicate within this batch
			attaches[i] = attach{f: f}
			continue
		}
		// A flight that cannot answer is doomed: admit a replacement. The
		// doomed flight removes itself from the table when it publishes
		// (identity-checked, so it cannot evict the replacement).
		if f, ok := s.flights[sp]; ok && f.answers() {
			hit := f.state.terminal()
			if hit {
				s.metrics.Count("service.memo.hit", 1)
			} else {
				s.metrics.Count("service.coalesced", 1)
			}
			attaches[i] = attach{f: f, hit: hit}
			continue
		}
		if res, ok := probed[sp]; ok {
			s.metrics.Count("service.cache.hit", 1)
			f := s.admitLocked(sp, jobDone)
			f.res = res
			close(f.done)
			attaches[i] = attach{f: f, hit: true}
			batch[sp] = f
			continue
		}
		s.metrics.Count("service.cache.miss", 1)
		fresh = append(fresh, sp)
		batch[sp] = nil
	}

	// Admission: the whole batch or none of it. Every send holds s.mu and
	// only workers receive, so the queue's free space can only grow while
	// s.mu is held: the sends below cannot block once this check passes.
	if len(fresh) > cap(s.queue)-len(s.queue) {
		s.metrics.Count("service.rejected.queue", 1)
		return nil, ErrQueueFull
	}
	for _, sp := range fresh {
		f := s.admitLocked(sp, jobQueued)
		f.ctx, f.cancel = s.baseCtx, func() {}
		if timeout > 0 {
			f.ctx, f.cancel = context.WithTimeout(s.baseCtx, timeout)
		}
		s.queue <- f
		batch[sp] = f
	}
	for i, sp := range norm {
		if attaches[i].f == nil { // a fresh spec or its duplicate
			attaches[i].f = batch[sp]
		}
	}
	s.metrics.Count("service.submissions", 1)
	s.metrics.Count("service.specs", int64(len(specs)))
	return attaches, nil
}

// admitLocked creates the flight for sp in state st and enters it in the
// flight table and the per-state counts: the one place a flight is made.
// Callers hold mu.
func (s *Server) admitLocked(sp runspec.RunSpec, st jobState) *flight {
	f := &flight{spec: sp, state: st, done: make(chan struct{})}
	s.flights[sp] = f
	s.counts[st]++
	return f
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
// core.Run cannot be interrupted, so the flight's context — its deadline
// and the hard stop — is checked on both sides of the run: a flight whose
// context ended in the queue never runs, and a result finished after it
// ended is discarded, never stored. Admission made the spec's store
// probe; the run's metrics registry merges into the service registry.
func (s *Server) runFlight(f *flight) {
	s.mu.Lock()
	s.transitionLocked(f, jobRunning)
	s.mu.Unlock()
	if s.runStarted != nil {
		s.runStarted(f.spec)
	}
	defer f.cancel()

	m := &obs.Metrics{}
	var res *core.Result
	err := f.ctx.Err()
	if err == nil {
		res, err = f.spec.RunObserved(s.cfg.Audit, m)
		if ctxErr := f.ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
	}
	storeFailed := false
	if err == nil && s.cfg.Cache != nil {
		storeFailed = s.cfg.Cache.Store(f.spec, res) != nil
	}

	// Publish the terminal state in one critical section: result fields,
	// metrics, and the state transition become visible together, and the
	// done channel closes after, so waiters see a complete flight.
	s.mu.Lock()
	s.metrics.Merge(m)
	if storeFailed {
		s.metrics.Count("service.cache.storeerr", 1)
	}
	st := jobDone
	switch {
	case err == nil:
		f.res = res
		s.metrics.Count("service.sim.count", 1)
		s.metrics.Count("service.jobs.done", 1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Drain hard-stop or per-job deadline: environmental, retryable.
		// A run error already names the spec; a context error does not.
		st = jobCanceled
		f.err = fmt.Errorf("%v: %w", f.spec, err)
		s.metrics.Count("service.jobs.canceled", 1)
		// Leave the coalesce table so the next identical spec starts a
		// fresh flight rather than finding this dead one. The identity
		// check protects a replacement flight admitted after this one's
		// deadline expired. Nothing else keeps the flight: once its
		// waiters have their answer it is garbage, so a stream of expired
		// submissions holds no memory.
		if s.flights[f.spec] == f {
			delete(s.flights, f.spec)
		}
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

// Close hard-stops the server: in-flight simulations are canceled (their
// results discarded, never cached) and workers drain. It implies
// StartDrain.
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
