// Package sp implements a simplified NAS SP: ADI iterations over a 3-D
// grid. Each iteration computes a stencil right-hand side (face sharing
// between neighbouring z-plane owners), performs local tridiagonal solves
// along x and y, then solves along z with forward and backward wavefronts
// pipelined through event synchronization — the cross-processor line
// dependencies that make SP synchronization-bound. The scalar
// pentadiagonal solves of the original are modelled with constant-
// coefficient tridiagonal (Thomas) solves of the same dependence shape.
package sp

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	stencilCycles = 60
	solveCycles   = 40 // per point per elimination step
)

// Tridiagonal coefficients (diagonally dominant).
const (
	coefA = -1.0 // sub-diagonal
	coefB = 4.0  // diagonal
	coefC = -1.0 // super-diagonal
)

// Config sizes the kernel.
type Config struct {
	N     int // grid dimension (paper: 16^3)
	Iters int // ADI iterations
}

// Kernel is the SP benchmark.
type Kernel struct {
	cfg Config
	u   core.F64 // solution
	b   core.F64 // fixed forcing
	r   core.F64 // right-hand side / sweep scratch
	w   core.F64 // z-wavefront scratch (forward-eliminated values)
}

// New returns an SP kernel.
func New(cfg Config) *Kernel {
	if cfg.N < 8 {
		cfg.N = 8
	}
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	return &Kernel{cfg: cfg}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "SP" }

// Setup allocates and initializes the grids.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	k.u = p.AllocF64(n * n * n)
	k.b = p.AllocF64(n * n * n)
	k.r = p.AllocF64(n * n * n)
	k.w = p.AllocF64(n * n * n)
	initForcing(n, func(i int, v float64) { k.b.Set(p, i, v) })
}

func initForcing(n int, set func(int, float64)) {
	rnd := kutil.NewRand(55)
	for i := 0; i < n*n*n; i++ {
		set(i, rnd.Float64()-0.5)
	}
}

// cprime precomputes the Thomas-algorithm modified coefficients for a
// constant-coefficient system of length m (pure private computation,
// identical in every task and in the replay).
func cprime(m int) []float64 {
	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	cp := make([]float64, m)
	cp[0] = coefC / coefB
	for i := 1; i < m; i++ {
		cp[i] = coefC / (coefB - coefA*cp[i-1])
	}
	return cp
}

// Task runs the SPMD ADI iterations. Tasks own z-plane blocks.
func (k *Kernel) Task(c *core.Ctx) {
	n := k.cfg.N
	nt := c.NumTasks()
	me := c.ID()
	zlo, zhi := kutil.Block(n, me, nt)
	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	idx := func(z, y, x int) int { return (z*n+y)*n + x }
	cp := cprime(n)

	for it := 0; it < k.cfg.Iters; it++ {
		// Phase 1: right-hand side r = b - A u (7-point stencil; z-face
		// neighbours are owned by adjacent tasks).
		for z := zlo; z < zhi; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					u := k.u.Load(c, idx(z, y, x))
					s := 6 * u
					if z > 0 {
						s -= k.u.Load(c, idx(z-1, y, x))
					}
					if z < n-1 {
						s -= k.u.Load(c, idx(z+1, y, x))
					}
					if y > 0 {
						s -= k.u.Load(c, idx(z, y-1, x))
					}
					if y < n-1 {
						s -= k.u.Load(c, idx(z, y+1, x))
					}
					if x > 0 {
						s -= k.u.Load(c, idx(z, y, x-1))
					}
					if x < n-1 {
						s -= k.u.Load(c, idx(z, y, x+1))
					}
					c.Compute(stencilCycles)
					k.r.Store(c, idx(z, y, x), k.b.Load(c, idx(z, y, x))-s)
				}
			}
		}
		c.Barrier()
		// Phase 2: x-sweep — Thomas solves along x for every owned line
		// (entirely local to the z-plane block).
		for z := zlo; z < zhi; z++ {
			for y := 0; y < n; y++ {
				// Forward elimination in place on r.
				d0 := k.r.Load(c, idx(z, y, 0)) / coefB
				k.r.Store(c, idx(z, y, 0), d0)
				prev := d0
				for x := 1; x < n; x++ {
					d := (k.r.Load(c, idx(z, y, x)) - coefA*prev) / (coefB - coefA*cp[x-1])
					c.Compute(solveCycles)
					k.r.Store(c, idx(z, y, x), d)
					prev = d
				}
				// Back substitution.
				for x := n - 2; x >= 0; x-- {
					v := k.r.Load(c, idx(z, y, x)) - cp[x]*k.r.Load(c, idx(z, y, x+1))
					c.Compute(solveCycles)
					k.r.Store(c, idx(z, y, x), v)
				}
			}
		}
		// Phase 3: y-sweep (also local).
		for z := zlo; z < zhi; z++ {
			for x := 0; x < n; x++ {
				d0 := k.r.Load(c, idx(z, 0, x)) / coefB
				k.r.Store(c, idx(z, 0, x), d0)
				prev := d0
				for y := 1; y < n; y++ {
					d := (k.r.Load(c, idx(z, y, x)) - coefA*prev) / (coefB - coefA*cp[y-1])
					c.Compute(solveCycles)
					k.r.Store(c, idx(z, y, x), d)
					prev = d
				}
				for y := n - 2; y >= 0; y-- {
					v := k.r.Load(c, idx(z, y, x)) - cp[y]*k.r.Load(c, idx(z, y+1, x))
					c.Compute(solveCycles)
					k.r.Store(c, idx(z, y, x), v)
				}
			}
		}
		c.Barrier()
		// Phase 4: z-sweep — forward and backward wavefronts pipelined
		// through events at y-chunk granularity, so successive tasks
		// overlap on different chunks instead of serializing on whole
		// plane blocks (as NAS SP pipelines its line solves).
		chunks := wfChunks
		if chunks > n {
			chunks = n
		}
		for ch := 0; ch < chunks; ch++ {
			ylo, yhi := kutil.Block(n, ch, chunks)
			if me > 0 {
				c.WaitEvent(k.eventID(it, 0, me-1, ch))
			}
			for z := zlo; z < zhi; z++ {
				for y := ylo; y < yhi; y++ {
					for x := 0; x < n; x++ {
						var d float64
						if z == 0 {
							d = k.r.Load(c, idx(0, y, x)) / coefB
						} else {
							prev := k.w.Load(c, idx(z-1, y, x))
							d = (k.r.Load(c, idx(z, y, x)) - coefA*prev) / (coefB - coefA*cp[z-1])
						}
						c.Compute(solveCycles)
						k.w.Store(c, idx(z, y, x), d)
					}
				}
			}
			if me < nt-1 {
				c.SignalEvent(k.eventID(it, 0, me, ch))
			}
		}
		// Backward wavefront, in reverse task order.
		for ch := 0; ch < chunks; ch++ {
			ylo, yhi := kutil.Block(n, ch, chunks)
			if me < nt-1 {
				c.WaitEvent(k.eventID(it, 1, me+1, ch))
			}
			for z := zhi - 1; z >= zlo; z-- {
				for y := ylo; y < yhi; y++ {
					for x := 0; x < n; x++ {
						v := k.w.Load(c, idx(z, y, x))
						if z < n-1 {
							v -= cp[z] * k.w.Load(c, idx(z+1, y, x))
						}
						c.Compute(solveCycles)
						k.w.Store(c, idx(z, y, x), v)
					}
				}
			}
			if me > 0 {
				c.SignalEvent(k.eventID(it, 1, me, ch))
			}
		}
		c.Barrier()
		// Phase 5: relax the solution with the ADI correction.
		for z := zlo; z < zhi; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					u := k.u.Load(c, idx(z, y, x))
					k.u.Store(c, idx(z, y, x), u+0.7*k.w.Load(c, idx(z, y, x)))
					c.Compute(4)
				}
			}
		}
		c.Barrier()
	}
}

// wfChunks is the wavefront pipeline granularity: each z-plane block is
// released to the next task in this many y-chunks.
const wfChunks = 8

// eventID maps (iteration, direction, task, chunk) to a unique one-shot
// event id.
func (k *Kernel) eventID(it, dir, task, chunk int) int {
	return ((it*2+dir)*4096+task)*64 + chunk + 1
}

// Verify replays the ADI iterations sequentially with identical arithmetic
// and compares the solution exactly.
func (k *Kernel) Verify(p *core.Program) error {
	n := k.cfg.N
	u := make([]float64, n*n*n)
	b := make([]float64, n*n*n)
	r := make([]float64, n*n*n)
	w := make([]float64, n*n*n)
	initForcing(n, func(i int, v float64) { b[i] = v })
	idx := func(z, y, x int) int { return (z*n+y)*n + x }
	cp := cprime(n)
	for it := 0; it < k.cfg.Iters; it++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					s := 6 * u[idx(z, y, x)]
					if z > 0 {
						s -= u[idx(z-1, y, x)]
					}
					if z < n-1 {
						s -= u[idx(z+1, y, x)]
					}
					if y > 0 {
						s -= u[idx(z, y-1, x)]
					}
					if y < n-1 {
						s -= u[idx(z, y+1, x)]
					}
					if x > 0 {
						s -= u[idx(z, y, x-1)]
					}
					if x < n-1 {
						s -= u[idx(z, y, x+1)]
					}
					r[idx(z, y, x)] = b[idx(z, y, x)] - s
				}
			}
		}
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				r[idx(z, y, 0)] /= coefB
				prev := r[idx(z, y, 0)]
				for x := 1; x < n; x++ {
					d := (r[idx(z, y, x)] - coefA*prev) / (coefB - coefA*cp[x-1])
					r[idx(z, y, x)] = d
					prev = d
				}
				for x := n - 2; x >= 0; x-- {
					r[idx(z, y, x)] -= cp[x] * r[idx(z, y, x+1)]
				}
			}
		}
		for z := 0; z < n; z++ {
			for x := 0; x < n; x++ {
				r[idx(z, 0, x)] /= coefB
				prev := r[idx(z, 0, x)]
				for y := 1; y < n; y++ {
					d := (r[idx(z, y, x)] - coefA*prev) / (coefB - coefA*cp[y-1])
					r[idx(z, y, x)] = d
					prev = d
				}
				for y := n - 2; y >= 0; y-- {
					r[idx(z, y, x)] -= cp[y] * r[idx(z, y+1, x)]
				}
			}
		}
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					if z == 0 {
						w[idx(0, y, x)] = r[idx(0, y, x)] / coefB
					} else {
						w[idx(z, y, x)] = (r[idx(z, y, x)] - coefA*w[idx(z-1, y, x)]) / (coefB - coefA*cp[z-1])
					}
				}
			}
		}
		for z := n - 1; z >= 0; z-- {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					if z < n-1 {
						w[idx(z, y, x)] -= cp[z] * w[idx(z+1, y, x)]
					}
				}
			}
		}
		for i := 0; i < n*n*n; i++ {
			u[i] += 0.7 * w[i]
		}
	}
	for i := 0; i < n*n*n; i++ {
		if got := k.u.Get(p, i); got != u[i] {
			return fmt.Errorf("sp: u[%d] = %g, want %g", i, got, u[i])
		}
	}
	return nil
}
