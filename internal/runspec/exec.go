package runspec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"slipstream/internal/core"
	"slipstream/internal/obs"
)

// Executor runs sets of RunSpecs on a bounded worker pool. Specs are
// normalized and deduplicated, so an executor is handed the union of
// every figure's plan and simulates each distinct configuration exactly
// once. Each simulation remains single-threaded and deterministic;
// parallelism is only across independent runs, so results are
// bit-identical to serial execution.
type Executor struct {
	// Workers bounds concurrent simulations. Zero or negative selects
	// runtime.NumCPU().
	Workers int

	// Audit enables the runtime invariant auditor on every simulated run
	// (results served by Lookup are not re-audited). An audit violation
	// aborts the batch like any other simulation error.
	Audit bool

	// Lookup, when set, is probed before scheduling a spec; returning
	// ok=true satisfies the spec without simulating (memo or persistent
	// cache hit). A corrupt or unreachable store entry is a miss: a fresh
	// simulation answers it, so callers that want to surface corruption
	// count it inside Lookup itself. It may be called from Execute's
	// caller goroutine only.
	Lookup func(RunSpec) (*core.Result, bool)

	// Observe, when set, supplies observation-bus subscribers for each
	// freshly simulated spec (results served by Lookup are not observed —
	// there is no run to observe). It is called from worker goroutines and
	// must be safe for concurrent use; the observers it returns are used by
	// one run only, so per-call state needs no locking.
	Observe func(RunSpec) []obs.Observer

	// Store, when set, receives each freshly simulated, verified result.
	// Calls are serialized by the executor.
	Store func(RunSpec, *core.Result)

	// OnDone, when set, observes every distinct spec exactly once, in
	// deterministic plan order regardless of worker interleaving; cached
	// reports whether Lookup satisfied it. Calls are serialized.
	OnDone func(spec RunSpec, res *core.Result, cached bool)
}

// Execute runs every spec and returns results in input order (duplicates
// share one result). A simulation error or numeric verification failure
// aborts scheduling of not-yet-started specs; the returned error is always
// that of the earliest failing spec in plan order, so failures are
// deterministic too. The results of specs that completed are returned
// even then; a spec that failed, was canceled or never started has a nil
// result.
//
// Canceling ctx stops new work: queued specs are not started, in-flight
// simulations finish but their results are discarded (never Stored), and
// Execute returns ctx.Err() after the workers drain — cancellation takes
// precedence over per-spec errors. A nil ctx behaves like
// context.Background().
func (e *Executor) Execute(ctx context.Context, specs []RunSpec) ([]*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	norm := make([]RunSpec, len(specs))
	index := make(map[RunSpec]int)
	var unique []RunSpec
	for i, sp := range specs {
		sp = sp.Normalize()
		norm[i] = sp
		if _, ok := index[sp]; !ok {
			index[sp] = len(unique)
			unique = append(unique, sp)
		}
	}

	results := make([]*core.Result, len(unique)) // nil until the spec is done
	errs := make([]error, len(unique))
	cached := make([]bool, len(unique))

	var mu sync.Mutex
	next := 0
	// flush reports completions in plan order; callers hold mu.
	flush := func() {
		for next < len(unique) && results[next] != nil {
			if e.OnDone != nil {
				e.OnDone(unique[next], results[next], cached[next])
			}
			next++
		}
	}

	var todo []int
	for i, sp := range unique {
		if e.Lookup != nil {
			if res, ok := e.Lookup(sp); ok {
				results[i] = res
				cached[i] = true
				continue
			}
		}
		todo = append(todo, i)
	}
	mu.Lock()
	flush()
	mu.Unlock()

	if len(todo) > 0 {
		workers := e.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		if workers > len(todo) {
			workers = len(todo)
		}
		jobs := make(chan int)
		var aborted atomic.Bool
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					if aborted.Load() || ctx.Err() != nil {
						continue
					}
					sp := unique[i]
					var observers []obs.Observer
					if e.Observe != nil {
						observers = e.Observe(sp)
					}
					res, err := sp.RunObserved(e.Audit, observers...)
					mu.Lock()
					switch {
					case ctx.Err() != nil:
						// Canceled while simulating: the result may be from a
						// partially drained batch, so it must never be Stored
						// or reported.
						errs[i] = ctx.Err()
						aborted.Store(true)
					case err != nil:
						errs[i] = err
						aborted.Store(true)
					default:
						if e.Store != nil {
							e.Store(sp, res)
						}
						results[i] = res
						flush()
					}
					mu.Unlock()
				}
			}()
		}
	feed:
		for _, i := range todo {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}

	out := make([]*core.Result, len(specs))
	for i, sp := range norm {
		out[i] = results[index[sp]]
	}

	// Cancellation takes precedence over per-spec errors: the batch was
	// interrupted, not broken.
	if err := ctx.Err(); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			// The earliest failure in plan order; later specs may still
			// have completed and keep their results.
			return out, err
		}
	}
	return out, nil
}
