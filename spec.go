package slipstream

import (
	"context"

	"slipstream/internal/runspec"
)

// RunSpec declares one simulation run: a benchmark, an execution mode and
// its slipstream options, a machine size, and (optionally) non-default
// machine parameters. It is the unit of planning, deduplication, and
// caching throughout the harness: specs are comparable (usable as map
// keys), and their JSON encoding is symbolic — mode, policy, and size
// names rather than enum ordinals — so serialized specs stay readable and
// stable across enum reordering.
//
// The zero value of every optional field means "default": CMPs 0 becomes
// 1, a zero Machine becomes DefaultMachine(CMPs). Call Normalize to apply
// the defaults explicitly, e.g. before comparing or hashing specs from
// different sources.
//
// RunSpec.Run simulates the spec. Unlike the package-level Run, it reports
// a numeric verification failure as an error wrapping the *VerifyError,
// not in Result.VerifyErr.
type RunSpec = runspec.RunSpec

// Execute simulates each spec on a bounded worker pool, deduplicating
// equal (after normalization) specs so each unique configuration runs
// once. Results are returned in input order; duplicate specs share the
// same *Result. workers bounds concurrency; <= 0 selects NumCPU. Each
// simulation is single-threaded and deterministic, so results are
// identical at any worker count.
//
// A spec that fails to build, simulate, or verify aborts the batch and
// returns the error of the earliest failing spec in input order.
// Canceling ctx stops scheduling new specs, lets in-flight simulations
// drain, and returns ctx.Err(); a nil ctx behaves like
// context.Background(). For persistent caching and progress reporting, use
// cmd/experiments or the internal harness; this entry point is the minimal
// parallel runner.
func Execute(ctx context.Context, specs []RunSpec, workers int) ([]*Result, error) {
	ex := &runspec.Executor{Workers: workers}
	results, err := ex.Execute(ctx, specs)
	if err != nil {
		return nil, err
	}
	return results, nil
}
