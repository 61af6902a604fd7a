// Package watersp implements the SPLASH-2 Water-Spatial structure:
// molecules binned into a 3-D cell grid, with forces computed only between
// molecules in neighbouring cells. Each task owns a contiguous block of
// cells and computes its own molecules' forces one-sidedly (reading
// neighbour cells' positions — local communication instead of Water-NS's
// all-pairs gather and locks), so the computation is deterministic and
// verified exactly.
package watersp

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	pairCycles   = 600
	updateCycles = 150
)

// Config sizes the kernel.
type Config struct {
	N     int // molecules (paper: 512)
	Cells int // cells per dimension (default 4)
	Steps int // time steps
}

// Kernel is the Water-SP benchmark.
type Kernel struct {
	cfg Config
	pos core.F64
	vel core.F64
	frc core.F64
	pot core.F64 // padded per-task partials
	sum core.F64 // accumulated energy (task 0 writes)

	// Static cell structure (built at setup; molecules move little over
	// the short simulated runs, so lists are not rebuilt — a documented
	// simplification that preserves the neighbour-cell traffic pattern).
	cellStart core.I64
	cellMol   core.I64

	// Per-task cell ranges, weighted by molecule count for balance (the
	// partition is decided at setup, as in the SPLASH code).
	cellLo, cellHi []int
}

// New returns a Water-SP kernel.
func New(cfg Config) *Kernel {
	if cfg.N < 8 {
		cfg.N = 8
	}
	if cfg.Cells < 2 {
		cfg.Cells = 4
	}
	if cfg.Steps < 1 {
		cfg.Steps = 1
	}
	return &Kernel{cfg: cfg}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "WATER-SP" }

// buildCells deterministically places molecules and bins them.
func buildCells(cfg Config) (pos, vel []float64, cellStart []int64, cellMol []int64) {
	n, cd := cfg.N, cfg.Cells
	rnd := kutil.NewRand(31415)
	pos = make([]float64, 3*n)
	vel = make([]float64, 3*n)
	box := float64(cd) // cell size 1.0
	for i := 0; i < 3*n; i++ {
		pos[i] = box * rnd.Float64()
		vel[i] = 0.02 * (rnd.Float64() - 0.5)
	}
	nc := cd * cd * cd
	buckets := make([][]int64, nc)
	for m := 0; m < n; m++ {
		cx := min(int(pos[3*m]), cd-1)
		cy := min(int(pos[3*m+1]), cd-1)
		cz := min(int(pos[3*m+2]), cd-1)
		ci := (cz*cd+cy)*cd + cx
		buckets[ci] = append(buckets[ci], int64(m))
	}
	cellStart = make([]int64, nc+1)
	for ci, b := range buckets {
		cellStart[ci+1] = cellStart[ci] + int64(len(b))
		cellMol = append(cellMol, b...)
	}
	return pos, vel, cellStart, cellMol
}

// Setup allocates molecule and cell state.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	pos, vel, cellStart, cellMol := buildCells(k.cfg)
	k.pos = p.AllocF64(3 * n)
	k.vel = p.AllocF64(3 * n)
	k.frc = p.AllocF64(3 * n)
	k.pot = p.AllocF64(p.NumTasks() * 8)
	k.sum = p.AllocF64(1)
	for i := 0; i < 3*n; i++ {
		k.pos.Set(p, i, pos[i])
		k.vel.Set(p, i, vel[i])
	}
	k.cellStart = p.AllocI64(len(cellStart))
	for i, v := range cellStart {
		k.cellStart.Set(p, i, v)
	}
	if len(cellMol) > 0 {
		k.cellMol = p.AllocI64(len(cellMol))
		for i, v := range cellMol {
			k.cellMol.Set(p, i, v)
		}
	}
	k.cellLo, k.cellHi = balanceCells(cellStart, p.NumTasks())
}

// balanceCells splits the cell list into per-task contiguous ranges with
// roughly equal pairwise-force work: each cell is weighted by its molecule
// count times its neighbourhood's molecule count.
func balanceCells(cellStart []int64, nt int) (lo, hi []int) {
	nc := len(cellStart) - 1
	cd := 2
	for cd*cd*cd < nc {
		cd++
	}
	weight := make([]int64, nc)
	var total int64
	var nbs [27]int
	for ci := 0; ci < nc; ci++ {
		own := cellStart[ci+1] - cellStart[ci]
		var nbMols int64
		for _, nb := range neighbours(&nbs, ci, cd) {
			nbMols += cellStart[nb+1] - cellStart[nb]
		}
		weight[ci] = own*nbMols + 1
		total += weight[ci]
	}
	lo = make([]int, nt)
	hi = make([]int, nt)
	ci := 0
	var acc int64
	for t := 0; t < nt; t++ {
		lo[t] = ci
		target := total * int64(t+1) / int64(nt)
		for ci < nc && acc+weight[ci] <= target {
			acc += weight[ci]
			ci++
		}
		if rem := nt - 1 - t; nc-ci < rem {
			ci = nc - rem
		}
		if ci < lo[t] {
			ci = lo[t]
		}
		hi[t] = ci
	}
	hi[nt-1] = nc
	return lo, hi
}

// pairForce matches waterns's softened interaction.
func pairForce(dx, dy, dz float64) (fx, fy, fz, pot float64) {
	r2 := dx*dx + dy*dy + dz*dz + 0.25
	inv := 1 / r2
	f := inv * inv
	return f * dx, f * dy, f * dz, inv
}

// neighbours lists a cell's neighbour cells (clamped, no periodic wrap),
// in deterministic order, in the caller's buf, and returns the filled
// prefix: a cell has at most 27, itself included.
func neighbours(buf *[27]int, ci, cd int) []int {
	cx := ci % cd
	cy := (ci / cd) % cd
	cz := ci / (cd * cd)
	n := 0
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y, z := cx+dx, cy+dy, cz+dz
				if x < 0 || y < 0 || z < 0 || x >= cd || y >= cd || z >= cd {
					continue
				}
				buf[n] = (z*cd+y)*cd + x
				n++
			}
		}
	}
	return buf[:n]
}

// Task runs the SPMD time steps over the task's cell block.
func (k *Kernel) Task(c *core.Ctx) {
	cd := k.cfg.Cells
	nt := c.NumTasks()
	me := c.ID()
	clo, chi := k.cellLo[me], k.cellHi[me]
	const dt = 0.002
	var nbs [27]int

	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	molsOf := func(ci int) (int, int) {
		return int(k.cellStart.Load(c, ci)), int(k.cellStart.Load(c, ci+1))
	}
	for step := 0; step < k.cfg.Steps; step++ {
		// Predict owned molecules (those in owned cells).
		for ci := clo; ci < chi; ci++ {
			s, e := molsOf(ci)
			for mi := s; mi < e; mi++ {
				m := int(k.cellMol.Load(c, mi))
				for d := 0; d < 3; d++ {
					k.pos.Store(c, 3*m+d, k.pos.Load(c, 3*m+d)+dt*k.vel.Load(c, 3*m+d))
				}
				c.Compute(updateCycles)
			}
		}
		c.Barrier()
		// Forces: one-sided over neighbour cells; each owner computes the
		// full force on its own molecules (pairs are evaluated twice
		// system-wide, as in cell-list codes that avoid locks).
		localPot := 0.0
		for ci := clo; ci < chi; ci++ {
			s, e := molsOf(ci)
			for mi := s; mi < e; mi++ {
				m := int(k.cellMol.Load(c, mi))
				xm := k.pos.Load(c, 3*m)
				ym := k.pos.Load(c, 3*m+1)
				zm := k.pos.Load(c, 3*m+2)
				fx, fy, fz := 0.0, 0.0, 0.0
				for _, nb := range neighbours(&nbs, ci, cd) {
					ns, ne := molsOf(nb)
					for ni := ns; ni < ne; ni++ {
						j := int(k.cellMol.Load(c, ni))
						if j == m {
							continue
						}
						dx := xm - k.pos.Load(c, 3*j)
						dy := ym - k.pos.Load(c, 3*j+1)
						dz := zm - k.pos.Load(c, 3*j+2)
						c.Compute(pairCycles)
						gx, gy, gz, pot := pairForce(dx, dy, dz)
						fx += gx
						fy += gy
						fz += gz
						localPot += pot / 2 // each pair counted twice
					}
				}
				k.frc.Store(c, 3*m, fx)
				k.frc.Store(c, 3*m+1, fy)
				k.frc.Store(c, 3*m+2, fz)
			}
		}
		// Deterministic energy reduction through per-task partials.
		k.pot.Store(c, me*8, localPot)
		c.Barrier()
		if me == 0 {
			total := k.sum.Load(c, 0)
			for t := 0; t < nt; t++ {
				total += k.pot.Load(c, t*8)
				c.Compute(2)
			}
			k.sum.Store(c, 0, total)
		}
		// Correct owned molecules.
		for ci := clo; ci < chi; ci++ {
			s, e := molsOf(ci)
			for mi := s; mi < e; mi++ {
				m := int(k.cellMol.Load(c, mi))
				for d := 0; d < 3; d++ {
					v := k.vel.Load(c, 3*m+d) + dt*k.frc.Load(c, 3*m+d)
					k.vel.Store(c, 3*m+d, v)
					k.pos.Store(c, 3*m+d, k.pos.Load(c, 3*m+d)+dt*v)
				}
				c.Compute(updateCycles)
			}
		}
		c.Barrier()
	}
}

// Verify replays the dynamics with identical arithmetic order (cells in
// ascending order, same neighbour order) and compares exactly.
func (k *Kernel) Verify(p *core.Program) error {
	cfg := k.cfg
	cd := cfg.Cells
	nc := cd * cd * cd
	nt := p.NumTasks()
	pos, vel, cellStart, cellMol := buildCells(cfg)
	frc := make([]float64, 3*cfg.N)
	const dt = 0.002
	energy := 0.0
	var nbs [27]int
	for step := 0; step < cfg.Steps; step++ {
		for ci := 0; ci < nc; ci++ {
			for mi := cellStart[ci]; mi < cellStart[ci+1]; mi++ {
				m := cellMol[mi]
				for d := 0; d < 3; d++ {
					pos[3*m+int64(d)] += dt * vel[3*m+int64(d)]
				}
			}
		}
		lo, hi := balanceCells(cellStart, nt)
		partials := make([]float64, nt)
		for t := 0; t < nt; t++ {
			clo, chi := lo[t], hi[t]
			localPot := 0.0
			for ci := clo; ci < chi; ci++ {
				for mi := cellStart[ci]; mi < cellStart[ci+1]; mi++ {
					m := cellMol[mi]
					xm, ym, zm := pos[3*m], pos[3*m+1], pos[3*m+2]
					fx, fy, fz := 0.0, 0.0, 0.0
					for _, nb := range neighbours(&nbs, ci, cd) {
						for ni := cellStart[nb]; ni < cellStart[nb+1]; ni++ {
							j := cellMol[ni]
							if j == m {
								continue
							}
							gx, gy, gz, pot := pairForce(xm-pos[3*j], ym-pos[3*j+1], zm-pos[3*j+2])
							fx += gx
							fy += gy
							fz += gz
							localPot += pot / 2
						}
					}
					frc[3*m] = fx
					frc[3*m+1] = fy
					frc[3*m+2] = fz
				}
			}
			partials[t] = localPot
		}
		for _, v := range partials {
			energy += v
		}
		for ci := 0; ci < nc; ci++ {
			for mi := cellStart[ci]; mi < cellStart[ci+1]; mi++ {
				m := cellMol[mi]
				for d := 0; d < 3; d++ {
					v := vel[3*m+int64(d)] + dt*frc[3*m+int64(d)]
					vel[3*m+int64(d)] = v
					pos[3*m+int64(d)] += dt * v
				}
			}
		}
	}
	for i := 0; i < 3*cfg.N; i++ {
		if got := k.pos.Get(p, i); got != pos[i] {
			return fmt.Errorf("watersp: pos[%d] = %g, want %g", i, got, pos[i])
		}
		if got := k.vel.Get(p, i); got != vel[i] {
			return fmt.Errorf("watersp: vel[%d] = %g, want %g", i, got, vel[i])
		}
	}
	if got := k.sum.Get(p, 0); got != energy {
		return fmt.Errorf("watersp: energy = %g, want %g", got, energy)
	}
	return nil
}
