// Package waterns implements the SPLASH-2 Water-NSquared structure: an
// O(N^2) molecular-dynamics step in which every task computes forces for
// its (interleaved) share of molecule pairs, reading all positions and
// accumulating into shared per-molecule force arrays under per-molecule
// locks. The lock traffic and migratory sharing of the force array are
// Water-NS's signature behaviours (the paper's Figure 6 shows its lock
// time; SI treats lines written in critical sections as migratory).
package waterns

import (
	"math"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	pairCycles   = 600 // pairwise O-H/H-H distance and potential terms
	updateCycles = 150 // per-molecule predictor/corrector
	verifyTol    = 1e-9
)

// Config sizes the kernel.
type Config struct {
	N     int // molecules (paper: 512)
	Steps int // time steps
}

// Kernel is the Water-NS benchmark.
type Kernel struct {
	cfg Config
	pos core.F64 // 3N positions
	vel core.F64 // 3N velocities
	frc core.F64 // 3N forces (lock-guarded accumulation)
	en  core.F64 // en[0]: potential-energy sum (lock-guarded)
}

// New returns a Water-NS kernel.
func New(cfg Config) *Kernel {
	if cfg.N < 8 {
		cfg.N = 8
	}
	cfg.N &^= 1 // the wraparound pairing requires an even count
	if cfg.Steps < 1 {
		cfg.Steps = 1
	}
	return &Kernel{cfg: cfg}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "WATER-NS" }

// Setup allocates and initializes molecule state.
func (k *Kernel) Setup(p *core.Program) {
	n := k.cfg.N
	k.pos = p.AllocF64(3 * n)
	k.vel = p.AllocF64(3 * n)
	k.frc = p.AllocF64(3 * n)
	k.en = p.AllocF64(1)
	initState(n, func(i int, pv, vv float64) {
		k.pos.Set(p, i, pv)
		k.vel.Set(p, i, vv)
	})
}

func initState(n int, set func(int, float64, float64)) {
	rnd := kutil.NewRand(2718)
	for i := 0; i < 3*n; i++ {
		set(i, 4*rnd.Float64(), 0.02*(rnd.Float64()-0.5))
	}
}

// pairForce is the softened inverse-square interaction used by both the
// simulated kernel and the verification replay.
func pairForce(dx, dy, dz float64) (fx, fy, fz, pot float64) {
	r2 := dx*dx + dy*dy + dz*dz + 0.25
	inv := 1 / r2
	f := inv * inv
	return f * dx, f * dy, f * dz, inv
}

// Task runs the SPMD time steps. Each task owns a contiguous block of
// molecules and, as in the SPLASH code, computes interactions between its
// molecules and the following N/2 molecules (wraparound), which balances
// the O(N^2) triangle across tasks.
func (k *Kernel) Task(c *core.Ctx) {
	n := k.cfg.N
	nt := c.NumTasks()
	me := c.ID()
	lo, hi := kutil.Block(n, me, nt)
	const dt = 0.002
	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	local := make([]float64, 3*n)
	for step := 0; step < k.cfg.Steps; step++ {
		// Predict positions for owned molecules.
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				k.pos.Store(c, 3*i+d, k.pos.Load(c, 3*i+d)+dt*k.vel.Load(c, 3*i+d))
			}
			c.Compute(updateCycles)
		}
		c.Barrier()
		// Pairwise forces, accumulated into a private copy (as the SPLASH
		// code does), then merged into the shared force array under
		// per-molecule locks — the migratory lock-guarded sharing that
		// characterizes Water-NS.
		localPot := 0.0
		clear(local)
		for i := lo; i < hi; i++ {
			xi := k.pos.Load(c, 3*i)
			yi := k.pos.Load(c, 3*i+1)
			zi := k.pos.Load(c, 3*i+2)
			for d := 1; d <= n/2; d++ {
				j := (i + d) % n
				if d == n/2 && i >= j {
					continue // the half-way ring pairs are split evenly
				}
				dx := xi - k.pos.Load(c, 3*j)
				dy := yi - k.pos.Load(c, 3*j+1)
				dz := zi - k.pos.Load(c, 3*j+2)
				c.Compute(pairCycles)
				fx, fy, fz, pot := pairForce(dx, dy, dz)
				localPot += pot
				local[3*i] += fx
				local[3*i+1] += fy
				local[3*i+2] += fz
				local[3*j] -= fx
				local[3*j+1] -= fy
				local[3*j+2] -= fz
			}
		}
		for m := 0; m < n; m++ {
			if local[3*m] == 0 && local[3*m+1] == 0 && local[3*m+2] == 0 {
				continue
			}
			c.Lock(m)
			for d := 0; d < 3; d++ {
				k.frc.Store(c, 3*m+d, k.frc.Load(c, 3*m+d)+local[3*m+d])
			}
			c.Unlock(m)
			c.Compute(6)
		}
		// Global potential-energy accumulation (lock-guarded scalar).
		c.Lock(n)
		k.en.Store(c, 0, k.en.Load(c, 0)+localPot)
		c.Unlock(n)
		c.Barrier()
		// Correct: integrate owned molecules and clear their forces.
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				v := k.vel.Load(c, 3*i+d) + dt*k.frc.Load(c, 3*i+d)
				k.vel.Store(c, 3*i+d, v)
				k.pos.Store(c, 3*i+d, k.pos.Load(c, 3*i+d)+dt*v)
				k.frc.Store(c, 3*i+d, 0)
			}
			c.Compute(updateCycles)
		}
		c.Barrier()
	}
}

// Verify replays the dynamics sequentially. Force and energy sums occur in
// a different order than the lock-arbitration order of the parallel run,
// so comparison uses a tight relative tolerance.
func (k *Kernel) Verify(p *core.Program) error {
	n := k.cfg.N
	pos := make([]float64, 3*n)
	vel := make([]float64, 3*n)
	frc := make([]float64, 3*n)
	initState(n, func(i int, pv, vv float64) { pos[i], vel[i] = pv, vv })
	const dt = 0.002
	energy := 0.0
	for step := 0; step < k.cfg.Steps; step++ {
		for i := 0; i < 3*n; i++ {
			pos[i] += dt * vel[i]
		}
		for i := 0; i < n; i++ {
			for d := 1; d <= n/2; d++ {
				j := (i + d) % n
				if d == n/2 && i >= j {
					continue
				}
				fx, fy, fz, pot := pairForce(pos[3*i]-pos[3*j], pos[3*i+1]-pos[3*j+1], pos[3*i+2]-pos[3*j+2])
				energy += pot
				frc[3*i] += fx
				frc[3*i+1] += fy
				frc[3*i+2] += fz
				frc[3*j] -= fx
				frc[3*j+1] -= fy
				frc[3*j+2] -= fz
			}
		}
		for i := 0; i < 3*n; i++ {
			vel[i] += dt * frc[i]
			pos[i] += dt * vel[i]
			frc[i] = 0
		}
	}
	for i := 0; i < 3*n; i++ {
		if err := kutil.CheckClose("waterns pos", i, k.pos.Get(p, i), pos[i], verifyTol); err != nil {
			return err
		}
		if err := kutil.CheckClose("waterns vel", i, k.vel.Get(p, i), vel[i], verifyTol); err != nil {
			return err
		}
	}
	if err := kutil.CheckClose("waterns energy", 0, k.en.Get(p, 0), energy, verifyTol); err != nil {
		return err
	}
	if math.IsNaN(k.en.Get(p, 0)) {
		return kutil.CheckClose("waterns energy", 0, k.en.Get(p, 0), energy, 0)
	}
	return nil
}
