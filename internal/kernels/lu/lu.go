// Package lu implements the SPLASH-2 blocked dense LU factorization
// (without pivoting). Blocks are 2-D scatter-assigned to tasks; each step
// factorizes the diagonal block, updates the perimeter row and column
// (reading the freshly written diagonal block — broadcast traffic), then
// updates the interior (reading perimeter blocks), with barriers between
// phases.
package lu

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	fmaCycles = 10 // one multiply-add plus indexing in the inner loops
)

// Config sizes the kernel.
type Config struct {
	N int // matrix dimension (paper: 512)
	B int // block size (default 16)
}

// Kernel is the LU benchmark.
type Kernel struct {
	cfg Config
	a   core.F64
	nb  int // blocks per dimension
	pr  int // processor grid rows
	pc  int // processor grid cols
}

// New returns an LU kernel.
func New(cfg Config) *Kernel {
	if cfg.B < 4 {
		cfg.B = 16
	}
	if cfg.N < cfg.B*2 {
		cfg.N = cfg.B * 2
	}
	cfg.N = cfg.N / cfg.B * cfg.B
	return &Kernel{cfg: cfg, nb: cfg.N / cfg.B}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "LU" }

// Setup allocates and fills the matrix with a diagonally dominant,
// deterministic pattern so elimination without pivoting is stable.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	k.a = p.AllocF64(n * n)
	initMatrix(n, func(i int, v float64) { k.a.Set(p, i, v) })
	k.pr, k.pc = procGrid(p.NumTasks())
}

func initMatrix(n int, set func(int, float64)) {
	rnd := kutil.NewRand(1234)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rnd.Float64() - 0.5
			if i == j {
				v += float64(n)
			}
			set(i*n+j, v)
		}
	}
}

// procGrid factors nt into the most square pr x pc grid.
func procGrid(nt int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= nt; d++ {
		if nt%d == 0 {
			pr = d
		}
	}
	return pr, nt / pr
}

// owner returns the task owning block (bi, bj) under a 2-D scatter map.
func (k *Kernel) owner(bi, bj int) int {
	return (bi%k.pr)*k.pc + bj%k.pc
}

// Task runs the SPMD blocked factorization.
func (k *Kernel) Task(c *core.Ctx) {
	n, b, nb := k.cfg.N, k.cfg.B, k.nb
	me := c.ID()
	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	at := func(i, j int) int { return i*n + j }

	for kb := 0; kb < nb; kb++ {
		d := kb * b
		// Phase 1: factorize the diagonal block (its owner only).
		if k.owner(kb, kb) == me {
			for kk := 0; kk < b; kk++ {
				piv := k.a.Load(c, at(d+kk, d+kk))
				for i := kk + 1; i < b; i++ {
					l := k.a.Load(c, at(d+i, d+kk)) / piv
					c.Compute(fmaCycles)
					k.a.Store(c, at(d+i, d+kk), l)
					for j := kk + 1; j < b; j++ {
						v := k.a.Load(c, at(d+i, d+j)) - l*k.a.Load(c, at(d+kk, d+j))
						c.Compute(fmaCycles)
						k.a.Store(c, at(d+i, d+j), v)
					}
				}
			}
		}
		c.Barrier()
		// Phase 2: update perimeter blocks, reading the diagonal block.
		for bj := kb + 1; bj < nb; bj++ {
			if k.owner(kb, bj) != me {
				continue
			}
			cj := bj * b
			// A[kb][bj] = L(kk)^-1 A[kb][bj]: forward solve per column.
			for kk := 0; kk < b; kk++ {
				for i := kk + 1; i < b; i++ {
					l := k.a.Load(c, at(d+i, d+kk))
					for j := 0; j < b; j++ {
						v := k.a.Load(c, at(d+i, cj+j)) - l*k.a.Load(c, at(d+kk, cj+j))
						c.Compute(fmaCycles)
						k.a.Store(c, at(d+i, cj+j), v)
					}
				}
			}
		}
		for bi := kb + 1; bi < nb; bi++ {
			if k.owner(bi, kb) != me {
				continue
			}
			ci := bi * b
			// A[bi][kb] = A[bi][kb] U(kk)^-1.
			for kk := 0; kk < b; kk++ {
				piv := k.a.Load(c, at(d+kk, d+kk))
				for i := 0; i < b; i++ {
					l := k.a.Load(c, at(ci+i, d+kk)) / piv
					c.Compute(fmaCycles)
					k.a.Store(c, at(ci+i, d+kk), l)
					for j := kk + 1; j < b; j++ {
						v := k.a.Load(c, at(ci+i, d+j)) - l*k.a.Load(c, at(d+kk, d+j))
						c.Compute(fmaCycles)
						k.a.Store(c, at(ci+i, d+j), v)
					}
				}
			}
		}
		c.Barrier()
		// Phase 3: interior update A[bi][bj] -= A[bi][kb] * A[kb][bj].
		for bi := kb + 1; bi < nb; bi++ {
			for bj := kb + 1; bj < nb; bj++ {
				if k.owner(bi, bj) != me {
					continue
				}
				ci, cj := bi*b, bj*b
				for i := 0; i < b; i++ {
					for kk := 0; kk < b; kk++ {
						l := k.a.Load(c, at(ci+i, d+kk))
						for j := 0; j < b; j++ {
							v := k.a.Load(c, at(ci+i, cj+j)) - l*k.a.Load(c, at(d+kk, cj+j))
							c.Compute(fmaCycles)
							k.a.Store(c, at(ci+i, cj+j), v)
						}
					}
				}
			}
		}
		c.Barrier()
	}
}

// Verify replays the identical blocked elimination sequentially.
func (k *Kernel) Verify(p *core.Program) error {
	n, b, nb := k.cfg.N, k.cfg.B, k.nb
	a := make([]float64, n*n)
	initMatrix(n, func(i int, v float64) { a[i] = v })
	at := func(i, j int) int { return i*n + j }
	for kb := 0; kb < nb; kb++ {
		d := kb * b
		for kk := 0; kk < b; kk++ {
			piv := a[at(d+kk, d+kk)]
			for i := kk + 1; i < b; i++ {
				l := a[at(d+i, d+kk)] / piv
				a[at(d+i, d+kk)] = l
				for j := kk + 1; j < b; j++ {
					a[at(d+i, d+j)] -= l * a[at(d+kk, d+j)]
				}
			}
		}
		for bj := kb + 1; bj < nb; bj++ {
			cj := bj * b
			for kk := 0; kk < b; kk++ {
				for i := kk + 1; i < b; i++ {
					l := a[at(d+i, d+kk)]
					for j := 0; j < b; j++ {
						a[at(d+i, cj+j)] -= l * a[at(d+kk, cj+j)]
					}
				}
			}
		}
		for bi := kb + 1; bi < nb; bi++ {
			ci := bi * b
			for kk := 0; kk < b; kk++ {
				piv := a[at(d+kk, d+kk)]
				for i := 0; i < b; i++ {
					l := a[at(ci+i, d+kk)] / piv
					a[at(ci+i, d+kk)] = l
					for j := kk + 1; j < b; j++ {
						a[at(ci+i, d+j)] -= l * a[at(d+kk, d+j)]
					}
				}
			}
		}
		for bi := kb + 1; bi < nb; bi++ {
			for bj := kb + 1; bj < nb; bj++ {
				ci, cj := bi*b, bj*b
				for i := 0; i < b; i++ {
					for kk := 0; kk < b; kk++ {
						l := a[at(ci+i, d+kk)]
						for j := 0; j < b; j++ {
							a[at(ci+i, cj+j)] -= l * a[at(d+kk, cj+j)]
						}
					}
				}
			}
		}
	}
	for i := 0; i < n*n; i++ {
		if got := k.a.Get(p, i); got != a[i] {
			return fmt.Errorf("lu: a[%d] = %g, want %g", i, got, a[i])
		}
	}
	return nil
}
