// Package cg implements the NAS CG kernel: conjugate-gradient iterations
// on a sparse symmetric diagonally dominant matrix. Rows are partitioned
// across tasks; the mat-vec reads the whole direction vector (all-gather
// communication), and the dot products use per-task partial sums that
// every task then re-reads — a deterministic reduction with CG's
// characteristic traffic.
package cg

import (
	"fmt"
	"sort"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	nzCycles  = 40 // multiply-add plus CSR index arithmetic per nonzero
	vecCycles = 20 // per-element vector update
)

// Config sizes the kernel.
type Config struct {
	N      int // matrix dimension (paper: 1400)
	PerRow int // approximate off-diagonal nonzeros per row
	Iters  int // CG iterations
}

// Kernel is the CG benchmark.
type Kernel struct {
	cfg Config

	// CSR matrix (read-only after setup).
	rowptr core.I64
	colidx core.I64
	vals   core.F64

	// mat is the matrix Setup built and copied in, kept for Verify's
	// replay so a run builds it once.
	mat struct {
		rowptr, colidx []int64
		vals           []float64
	}

	x, r, pv, q core.F64
	partial     core.F64 // padded per-task partial sums
	rhoHist     core.F64 // rho after each iteration (task 0 writes)

	nnz int
}

// New returns a CG kernel.
func New(cfg Config) *Kernel {
	if cfg.N < 16 {
		cfg.N = 16
	}
	if cfg.PerRow < 2 {
		cfg.PerRow = 8
	}
	if cfg.Iters < 1 {
		cfg.Iters = 5
	}
	return &Kernel{cfg: cfg}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "CG" }

// buildMatrix generates the deterministic sparse symmetric matrix as
// (rowptr, colidx, vals) CSR slices. Each row holds its diagonal, and
// PerRow/2 random draws per row each set an off-diagonal pair A[i][j] =
// A[j][i]; where two draws set the same entry, the later one wins.
//
// The draws are replayed twice: once to count each row's writes, which
// sizes the slices, and once to place the writes, row by row in draw
// order. Sorting each row stably by column then leaves each column's
// writes in draw order, and the last of them is the one kept.
func buildMatrix(cfg Config) (rowptr []int64, colidx []int64, vals []float64) {
	n := cfg.N
	draw := func(write func(i, j int, v float64)) {
		rnd := kutil.NewRand(99)
		for i := 0; i < n; i++ {
			write(i, i, float64(cfg.PerRow)+4)
		}
		for i := 0; i < n; i++ {
			for e := 0; e < cfg.PerRow/2; e++ {
				j := rnd.Intn(n)
				if j == i {
					continue
				}
				v := rnd.Float64() - 0.5
				write(i, j, v)
				write(j, i, v)
			}
		}
	}

	// Count row i's writes in rowptr[i+1] and sum the counts, so rowptr[i]
	// is row i's first slot. Placing a write advances rowptr[i], to row
	// i+1's first slot once the row is placed; shifting rowptr up by one
	// then restores the row starts.
	rowptr = make([]int64, n+1)
	draw(func(i, _ int, _ float64) { rowptr[i+1]++ })
	for i := 1; i <= n; i++ {
		rowptr[i] += rowptr[i-1]
	}
	colidx = make([]int64, rowptr[n])
	vals = make([]float64, rowptr[n])
	draw(func(i, j int, v float64) {
		colidx[rowptr[i]], vals[rowptr[i]] = int64(j), v
		rowptr[i]++
	})
	copy(rowptr[1:], rowptr[:n])
	rowptr[0] = 0

	// Keep the last write of each column and close the gaps the others
	// leave: a row never moves past its own start.
	row := &csrRow{}
	nnz := int64(0)
	for i := 0; i < n; i++ {
		lo, hi := rowptr[i], rowptr[i+1]
		row.cols, row.vals = colidx[lo:hi], vals[lo:hi]
		sort.Stable(row)
		rowptr[i] = nnz
		for e := lo; e < hi; e++ {
			if e+1 < hi && colidx[e+1] == colidx[e] {
				continue
			}
			colidx[nnz], vals[nnz] = colidx[e], vals[e]
			nnz++
		}
	}
	rowptr[n] = nnz
	return rowptr, colidx[:nnz], vals[:nnz]
}

// csrRow sorts one CSR row's columns, and its values with them, by column.
type csrRow struct {
	cols []int64
	vals []float64
}

func (r *csrRow) Len() int           { return len(r.cols) }
func (r *csrRow) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r *csrRow) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}

// Setup allocates the matrix and vectors.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	rowptr, colidx, vals := buildMatrix(k.cfg)
	k.mat.rowptr, k.mat.colidx, k.mat.vals = rowptr, colidx, vals
	k.nnz = len(vals)
	k.rowptr = p.AllocI64(n + 1)
	k.colidx = p.AllocI64(len(colidx))
	k.vals = p.AllocF64(len(vals))
	for i, v := range rowptr {
		k.rowptr.Set(p, i, v)
	}
	for i, v := range colidx {
		k.colidx.Set(p, i, v)
	}
	for i, v := range vals {
		k.vals.Set(p, i, v)
	}
	k.x = p.AllocF64(n)
	k.r = p.AllocF64(n)
	k.pv = p.AllocF64(n)
	k.q = p.AllocF64(n)
	k.partial = p.AllocF64(p.NumTasks() * 8)
	k.rhoHist = p.AllocF64(k.cfg.Iters)
	// b = all ones; x0 = 0; r = p = b.
	for i := 0; i < n; i++ {
		k.r.Set(p, i, 1)
		k.pv.Set(p, i, 1)
	}
}

// reduce computes the global sum of per-task values deterministically:
// each task publishes its partial, barriers, then sums all partials in
// task order.
func (k *Kernel) reduce(c *core.Ctx, local float64) float64 {
	k.partial.Store(c, c.ID()*8, local)
	c.Barrier()
	sum := 0.0
	for t := 0; t < c.NumTasks(); t++ {
		sum += k.partial.Load(c, t*8)
		c.Compute(2)
	}
	c.Barrier()
	return sum
}

// Task runs the SPMD CG iterations.
func (k *Kernel) Task(c *core.Ctx) {
	n := k.cfg.N
	lo, hi := kutil.Block(n, c.ID(), c.NumTasks())

	// rho = r . r
	local := 0.0
	for i := lo; i < hi; i++ {
		v := k.r.Load(c, i)
		local += v * v
		c.Compute(vecCycles)
	}
	rho := k.reduce(c, local)

	for it := 0; it < k.cfg.Iters; it++ {
		// q = A p (reads the whole of p: the all-gather).
		for i := lo; i < hi; i++ {
			start := int(k.rowptr.Load(c, i))
			end := int(k.rowptr.Load(c, i+1))
			sum := 0.0
			for e := start; e < end; e++ {
				j := int(k.colidx.Load(c, e))
				sum += k.vals.Load(c, e) * k.pv.Load(c, j)
				c.Compute(nzCycles)
			}
			k.q.Store(c, i, sum)
		}
		c.Barrier()

		// alpha = rho / (p . q)
		local = 0.0
		for i := lo; i < hi; i++ {
			local += k.pv.Load(c, i) * k.q.Load(c, i)
			c.Compute(vecCycles)
		}
		pq := k.reduce(c, local)
		alpha := rho / pq

		// x += alpha p ; r -= alpha q ; rhoNew = r . r
		local = 0.0
		for i := lo; i < hi; i++ {
			k.x.Store(c, i, k.x.Load(c, i)+alpha*k.pv.Load(c, i))
			rv := k.r.Load(c, i) - alpha*k.q.Load(c, i)
			k.r.Store(c, i, rv)
			local += rv * rv
			c.Compute(3 * vecCycles)
		}
		rhoNew := k.reduce(c, local)
		beta := rhoNew / rho
		rho = rhoNew
		if c.ID() == 0 {
			k.rhoHist.Store(c, it, rho)
		}

		// p = r + beta p
		for i := lo; i < hi; i++ {
			k.pv.Store(c, i, k.r.Load(c, i)+beta*k.pv.Load(c, i))
			c.Compute(vecCycles)
		}
		c.Barrier()
	}
}

// Verify replays CG with identical arithmetic (including the partial-sum
// order of the simulated reduction) on the matrix Setup built, and
// compares exactly.
func (k *Kernel) Verify(p *core.Program) error {
	n := k.cfg.N
	nt := p.NumTasks()
	rowptr, colidx, vals := k.mat.rowptr, k.mat.colidx, k.mat.vals

	x := make([]float64, n)
	r := make([]float64, n)
	pv := make([]float64, n)
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i], pv[i] = 1, 1
	}
	reduce := func(f func(t, lo, hi int) float64) float64 {
		partials := make([]float64, nt)
		for t := 0; t < nt; t++ {
			lo, hi := kutil.Block(n, t, nt)
			partials[t] = f(t, lo, hi)
		}
		sum := 0.0
		for _, v := range partials {
			sum += v
		}
		return sum
	}
	rho := reduce(func(_, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += r[i] * r[i]
		}
		return s
	})
	rhoHist := make([]float64, k.cfg.Iters)
	for it := 0; it < k.cfg.Iters; it++ {
		for i := 0; i < n; i++ {
			sum := 0.0
			for e := rowptr[i]; e < rowptr[i+1]; e++ {
				sum += vals[e] * pv[colidx[e]]
			}
			q[i] = sum
		}
		pq := reduce(func(_, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += pv[i] * q[i]
			}
			return s
		})
		alpha := rho / pq
		for i := 0; i < n; i++ {
			x[i] += alpha * pv[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := reduce(func(_, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += r[i] * r[i]
			}
			return s
		})
		beta := rhoNew / rho
		rho = rhoNew
		rhoHist[it] = rho
		for i := 0; i < n; i++ {
			pv[i] = r[i] + beta*pv[i]
		}
	}
	for i := 0; i < n; i++ {
		if got := k.x.Get(p, i); got != x[i] {
			return fmt.Errorf("cg: x[%d] = %g, want %g", i, got, x[i])
		}
	}
	for it := 0; it < k.cfg.Iters; it++ {
		if got := k.rhoHist.Get(p, it); got != rhoHist[it] {
			return fmt.Errorf("cg: rho[%d] = %g, want %g", it, got, rhoHist[it])
		}
	}
	return nil
}
