// Package sor implements successive over-relaxation on a 2-D grid, one of
// the paper's nine benchmarks (Table 2: 1024x1024; scaled down here). Like
// the classic DSM SOR benchmarks, it sweeps between two grids (reading one,
// writing the other) so concurrent boundary-row reads never collide with
// in-place writes; tasks own contiguous row blocks and exchange boundary
// rows with neighbours each half-step — the nearest-neighbour
// producer-consumer pattern slipstream prefetching targets.
package sor

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

// flopCycles approximates the per-point cost of the 5-point update (adds,
// multiply by the damping factor, index arithmetic) on a simple in-order core.
const flopCycles = 45

// Config sizes the kernel.
type Config struct {
	N     int // grid dimension (N x N, including fixed boundary)
	Iters int // sweeps
}

// Kernel is the SOR benchmark.
type Kernel struct {
	cfg  Config
	grid [2]core.F64
}

// New returns a SOR kernel. The paper runs 1024x1024; the size presets
// in the kernels registry run smaller grids.
func New(cfg Config) *Kernel {
	if cfg.N < 4 {
		cfg.N = 4
	}
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	return &Kernel{cfg: cfg}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "SOR" }

// Setup allocates and initializes the grids.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	k.grid[0] = p.AllocF64(n * n)
	k.grid[1] = p.AllocF64(n * n)
	initGrid(n, func(i int, v float64) {
		k.grid[0].Set(p, i, v)
		k.grid[1].Set(p, i, v)
	})
}

func initGrid(n int, set func(int, float64)) {
	rnd := kutil.NewRand(42)
	for i := 0; i < n*n; i++ {
		set(i, rnd.Float64())
	}
}

// Task runs the SPMD body: sweeps alternating between the two grids, with
// a barrier after each sweep (boundary rows move between neighbours).
func (k *Kernel) Task(c *core.Ctx) {
	n := k.cfg.N
	const omega = 0.8
	lo, hi := kutil.Block(n-2, c.ID(), c.NumTasks())
	lo, hi = lo+1, hi+1 // interior rows only
	for it := 0; it < k.cfg.Iters; it++ {
		src, dst := k.grid[it%2], k.grid[1-it%2]
		for i := lo; i < hi; i++ {
			for j := 1; j < n-1; j++ {
				up := src.Load(c, (i-1)*n+j)
				down := src.Load(c, (i+1)*n+j)
				left := src.Load(c, i*n+j-1)
				right := src.Load(c, i*n+j+1)
				center := src.Load(c, i*n+j)
				v := center + omega*((up+down+left+right)/4-center)
				c.Compute(flopCycles)
				dst.Store(c, i*n+j, v)
			}
		}
		c.Barrier()
	}
}

// Verify replays the sweeps in plain Go and compares every cell exactly.
func (k *Kernel) Verify(p *core.Program) error {
	n := k.cfg.N
	const omega = 0.8
	ref := [2][]float64{make([]float64, n*n), make([]float64, n*n)}
	initGrid(n, func(i int, v float64) { ref[0][i], ref[1][i] = v, v })
	for it := 0; it < k.cfg.Iters; it++ {
		src, dst := ref[it%2], ref[1-it%2]
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				center := src[i*n+j]
				dst[i*n+j] = center + omega*((src[(i-1)*n+j]+src[(i+1)*n+j]+src[i*n+j-1]+src[i*n+j+1])/4-center)
			}
		}
	}
	final := ref[k.cfg.Iters%2]
	got := k.grid[k.cfg.Iters%2]
	for i := 0; i < n*n; i++ {
		if g := got.Get(p, i); g != final[i] {
			return fmt.Errorf("sor: cell %d = %g, want %g", i, g, final[i])
		}
	}
	return nil
}
