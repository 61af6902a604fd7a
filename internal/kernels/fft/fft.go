// Package fft implements the SPLASH-2-style six-step 1-D complex FFT:
// blocked all-to-all transposes around local row FFTs with a twiddle pass.
// The transposes move freshly written remote lines while each task also
// stores its own rows — the interleaved pattern whose coherence traffic
// dominates FFT at scale (and degrades it beyond 4 CMPs in the paper).
package fft

import (
	"fmt"
	"math"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

const (
	bflyCycles = 60 // one radix-2 butterfly (10 flops + index math)
	moveCycles = 12 // one complex copy in a transpose
	twidCycles = 40 // one complex multiply
)

// Config sizes the kernel.
type Config struct {
	LogN int // log2 of the transform size (paper: 16, i.e. 64K)
}

// Kernel is the FFT benchmark.
type Kernel struct {
	cfg    Config
	n      int
	n1, n2 int
	x, y   core.F64 // interleaved re/im, 2n words each
	w      core.F64 // roots of unity W_n^t, interleaved re/im
}

// New returns an FFT kernel.
func New(cfg Config) *Kernel {
	if cfg.LogN < 6 {
		cfg.LogN = 6
	}
	k := &Kernel{cfg: cfg}
	k.n = 1 << cfg.LogN
	k.n1 = 1 << (cfg.LogN / 2)
	k.n2 = k.n / k.n1
	return k
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "FFT" }

// buf abstracts an interleaved complex array so the simulated kernel and
// the verification replay execute bit-identical arithmetic.
type buf interface {
	ld(i int) float64
	st(i int, v float64)
}

type simBuf struct {
	c *core.Ctx
	a core.F64
}

func (b simBuf) ld(i int) float64    { return b.a.Load(b.c, i) }
func (b simBuf) st(i int, v float64) { b.a.Store(b.c, i, v) }

type refBuf struct{ s []float64 }

func (b refBuf) ld(i int) float64    { return b.s[i] }
func (b refBuf) st(i int, v float64) { b.s[i] = v }

// Setup allocates the data and twiddle arrays.
func (k *Kernel) Setup(p *core.Program) {
	k.x = p.AllocF64(2 * k.n)
	k.y = p.AllocF64(2 * k.n)
	k.w = p.AllocF64(2 * k.n)
	initInput(k.n, func(i int, v float64) { k.x.Set(p, i, v) })
	for t := 0; t < k.n; t++ {
		ang := -2 * math.Pi * float64(t) / float64(k.n)
		k.w.Set(p, 2*t, math.Cos(ang))
		k.w.Set(p, 2*t+1, math.Sin(ang))
	}
}

func initInput(n int, set func(int, float64)) {
	rnd := kutil.NewRand(123)
	for i := 0; i < 2*n; i++ {
		set(i, rnd.Float64()-0.5)
	}
}

// Task runs the SPMD six-step FFT. Final results land in y.
func (k *Kernel) Task(c *core.Ctx) {
	x := simBuf{c, k.x}
	y := simBuf{c, k.y}
	w := simBuf{c, k.w}
	//simlint:ignore hotpathalloc per-task functional-emulation setup, amortized over the task's simulated execution
	sixStep(x, y, w, k.n1, k.n2, c.ID(), c.NumTasks(), func(cy int64) { c.Compute(cy) }, c.Barrier)
}

// sixStep performs the six-step FFT over the buffers; the simulated and
// reference paths share this exact code.
func sixStep(x, y, w buf, n1, n2 int, id, nt int, compute func(int64), barrier func()) {
	// Step 1: transpose x (n1 rows x n2 cols) into y (n2 x n1). Each task
	// owns destination rows of y; the column walk is staggered per task.
	transpose(x, y, n1, n2, id, nt, compute)
	barrier()
	// Step 2: FFT each owned row of y (length n1).
	lo, hi := kutil.Block(n2, id, nt)
	for r := lo; r < hi; r++ {
		rowFFT(y, r*n1, n1, n2, w, compute)
	}
	barrier()
	// Step 3: twiddle y[k2][j1] *= W_n^(j1*k2).
	for r := lo; r < hi; r++ {
		for j1 := 0; j1 < n1; j1++ {
			wr, wi := w.ld(2*(j1*r)), w.ld(2*(j1*r)+1)
			re, im := y.ld(2*(r*n1+j1)), y.ld(2*(r*n1+j1)+1)
			compute(twidCycles)
			y.st(2*(r*n1+j1), re*wr-im*wi)
			y.st(2*(r*n1+j1)+1, re*wi+im*wr)
		}
	}
	barrier()
	// Step 4: transpose y (n2 x n1) back into x (n1 x n2).
	transpose(y, x, n2, n1, id, nt, compute)
	barrier()
	// Step 5: FFT each owned row of x (length n2).
	lo, hi = kutil.Block(n1, id, nt)
	for r := lo; r < hi; r++ {
		rowFFT(x, r*n2, n2, n1, w, compute)
	}
	barrier()
	// Step 6: transpose x (n1 x n2) into y (n2 x n1): y read row-major is
	// the natural-order transform.
	transpose(x, y, n1, n2, id, nt, compute)
	barrier()
}

// transpose writes dst[c][r] = src[r][c] for an rows x cols source. Tasks
// own destination rows. As in the SPLASH-2 FFT, the copy is blocked into
// cache-line-sized patches (4 complex values per 64-byte line) so every
// fetched line is fully consumed, and the source sweep is staggered by
// task id so home directories are not hit in lockstep.
func transpose(src, dst buf, rows, cols, id, nt int, compute func(int64)) {
	const pb = 4 // complex values per cache line
	lo, hi := kutil.Block(cols, id, nt)
	patches := (rows + pb - 1) / pb
	off := id * patches / max(nt, 1)
	for dr := lo; dr < hi; dr += pb {
		drEnd := min(dr+pb, hi)
		for pj := 0; pj < patches; pj++ {
			srBase := ((pj + off) % patches) * pb
			srEnd := min(srBase+pb, rows)
			for sr := srBase; sr < srEnd; sr++ {
				for d := dr; d < drEnd; d++ {
					re := src.ld(2 * (sr*cols + d))
					im := src.ld(2*(sr*cols+d) + 1)
					compute(moveCycles)
					dst.st(2*(d*rows+sr), re)
					dst.st(2*(d*rows+sr)+1, im)
				}
			}
		}
	}
}

// rowFFT performs an in-place iterative radix-2 FFT of length m on
// buf[2*base:2*(base+m)], using the global root table W_n (stride =
// n/m = wstride).
func rowFFT(b buf, base, m, wstride int, w buf, compute func(int64)) {
	// Bit-reversal permutation.
	for i, j := 0, 0; i < m; i++ {
		if i < j {
			ri, ii := b.ld(2*(base+i)), b.ld(2*(base+i)+1)
			rj, ij := b.ld(2*(base+j)), b.ld(2*(base+j)+1)
			b.st(2*(base+i), rj)
			b.st(2*(base+i)+1, ij)
			b.st(2*(base+j), ri)
			b.st(2*(base+j)+1, ii)
			compute(moveCycles)
		}
		bit := m >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	// Butterflies.
	for size := 2; size <= m; size <<= 1 {
		half := size / 2
		step := m / size * wstride
		for start := 0; start < m; start += size {
			for t := 0; t < half; t++ {
				wr := w.ld(2 * (t * step))
				wi := w.ld(2*(t*step) + 1)
				a, bidx := base+start+t, base+start+t+half
				ar, ai := b.ld(2*a), b.ld(2*a+1)
				br, bi := b.ld(2*bidx), b.ld(2*bidx+1)
				compute(bflyCycles)
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				b.st(2*a, ar+tr)
				b.st(2*a+1, ai+ti)
				b.st(2*bidx, ar-tr)
				b.st(2*bidx+1, ai-ti)
			}
		}
	}
}

// Verify replays the six-step algorithm sequentially with identical
// arithmetic (using the same per-task partitioning) and compares exactly.
func (k *Kernel) Verify(p *core.Program) error {
	want := k.Reference(p.NumTasks())
	for i := 0; i < 2*k.n; i++ {
		if got := k.y.Get(p, i); got != want[i] {
			return fmt.Errorf("fft: y[%d] = %g, want %g", i, got, want[i])
		}
	}
	return nil
}

// Reference computes the transform with the same algorithm and task
// partitioning in plain Go, returning the interleaved result.
func (k *Kernel) Reference(nt int) []float64 {
	x := make([]float64, 2*k.n)
	y := make([]float64, 2*k.n)
	w := make([]float64, 2*k.n)
	initInput(k.n, func(i int, v float64) { x[i] = v })
	for t := 0; t < k.n; t++ {
		ang := -2 * math.Pi * float64(t) / float64(k.n)
		w[2*t] = math.Cos(ang)
		w[2*t+1] = math.Sin(ang)
	}
	// Phases are data-parallel per destination row, so running each
	// phase for all tasks before the next reproduces barrier semantics.
	xb, yb, wb := refBuf{x}, refBuf{y}, refBuf{w}
	phase := func(f func(id int)) {
		for id := 0; id < nt; id++ {
			f(id)
		}
	}
	phase(func(id int) { transpose(xb, yb, k.n1, k.n2, id, nt, func(int64) {}) })
	phase(func(id int) {
		lo, hi := kutil.Block(k.n2, id, nt)
		for r := lo; r < hi; r++ {
			rowFFT(yb, r*k.n1, k.n1, k.n2, wb, func(int64) {})
		}
	})
	phase(func(id int) {
		lo, hi := kutil.Block(k.n2, id, nt)
		for r := lo; r < hi; r++ {
			for j1 := 0; j1 < k.n1; j1++ {
				wr, wi := w[2*(j1*r)], w[2*(j1*r)+1]
				re, im := y[2*(r*k.n1+j1)], y[2*(r*k.n1+j1)+1]
				y[2*(r*k.n1+j1)] = re*wr - im*wi
				y[2*(r*k.n1+j1)+1] = re*wi + im*wr
			}
		}
	})
	phase(func(id int) { transpose(yb, xb, k.n2, k.n1, id, nt, func(int64) {}) })
	phase(func(id int) {
		lo, hi := kutil.Block(k.n1, id, nt)
		for r := lo; r < hi; r++ {
			rowFFT(xb, r*k.n2, k.n2, k.n1, wb, func(int64) {})
		}
	})
	phase(func(id int) { transpose(xb, yb, k.n1, k.n2, id, nt, func(int64) {}) })
	return y
}

// N returns the transform size.
func (k *Kernel) N() int { return k.n }
