package core

import (
	"fmt"
	"testing"
)

// TestSkewQuantumPreservesNumerics: the bounded-skew optimization changes
// event interleavings (and therefore cycle counts slightly) but must never
// change computed results. Verification replays catch any violation.
func TestSkewQuantumPreservesNumerics(t *testing.T) {
	for _, q := range []int64{1, 50, 200, 5000} {
		for _, mode := range []Mode{ModeSingle, ModeDouble, ModeSlipstream} {
			k := &stencilKernel{n: 1024, iters: 4}
			res, err := Run(Options{
				Mode: mode, CMPs: 4, ARSync: OneTokenLocal, skew: q,
			}, k)
			if err != nil {
				t.Fatalf("q=%d %v: %v", q, mode, err)
			}
			if res.VerifyErr != nil {
				t.Fatalf("q=%d %v: %v", q, mode, res.VerifyErr)
			}
		}
	}
}

// TestSkewQuantumTimingStability: timing distortion from the skew window
// must stay small (it only covers private L1 hits and compute).
func TestSkewQuantumTimingStability(t *testing.T) {
	cycles := map[int64]int64{}
	for _, q := range []int64{1, 200, 5000} {
		k := &gatherKernel{n: 2048, iters: 3}
		res, err := Run(Options{Mode: ModeSingle, CMPs: 4, skew: q}, k)
		if err != nil {
			t.Fatal(err)
		}
		cycles[q] = res.Cycles
	}
	ref := cycles[1]
	for q, c := range cycles {
		diff := c - ref
		if diff < 0 {
			diff = -diff
		}
		if diff*100 > ref*3 { // within 3%
			t.Errorf("quantum %d shifts cycles by %d of %d (>3%%)", q, diff, ref)
		}
	}
}

// fifoKernel has every task acquire the same lock once after a staggered
// delay, recording the grant order.
type fifoKernel struct {
	order *[]int
}

func (k *fifoKernel) Name() string     { return "fifo" }
func (k *fifoKernel) Setup(p *Program) {}
func (k *fifoKernel) Task(c *Ctx) {
	// Task i arrives at the lock in index order (staggered by compute).
	c.Compute(int64(c.ID()) * 5000)
	c.Lock(3)
	*k.order = append(*k.order, c.ID())
	c.Compute(20000) // hold long enough that all later tasks queue
	c.Unlock(3)
	c.Barrier()
}
func (k *fifoKernel) Verify(p *Program) error { return nil }

func TestLockGrantsAreFIFO(t *testing.T) {
	var order []int
	_, err := Run(Options{Mode: ModeSingle, CMPs: 6}, &fifoKernel{order: &order})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("grants = %v", order)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

// signalFirstKernel signals before anyone waits: waiters must not block.
type signalFirstKernel struct{}

func (k *signalFirstKernel) Name() string     { return "signal-first" }
func (k *signalFirstKernel) Setup(p *Program) {}
func (k *signalFirstKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.SignalEvent(9)
	} else {
		c.Compute(50000) // arrive long after the signal
		c.WaitEvent(9)
	}
	c.Barrier()
}
func (k *signalFirstKernel) Verify(p *Program) error { return nil }

func TestEventSignalBeforeWait(t *testing.T) {
	res, err := Run(Options{Mode: ModeSingle, CMPs: 3}, &signalFirstKernel{})
	if err != nil {
		t.Fatal(err)
	}
	// The waiters' barrier time must be tiny (no blocking on the event).
	for i, bd := range res.Tasks {
		if i == 0 {
			continue
		}
		if bd.Barrier > 20000 {
			t.Errorf("task %d waited %d cycles on a pre-signaled event", i, bd.Barrier)
		}
	}
}

// TestBarrierReuseAcrossGenerations: many rapid barrier generations with
// uneven arrival order must neither deadlock nor lose tasks.
func TestBarrierReuseAcrossGenerations(t *testing.T) {
	k := &generationKernel{rounds: 30}
	res, err := Run(Options{Mode: ModeDouble, CMPs: 3}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

type generationKernel struct {
	rounds int
	out    F64
}

func (k *generationKernel) Name() string { return "generations" }
func (k *generationKernel) Setup(p *Program) {
	k.out = p.AllocF64(p.NumTasks() * 8)
}
func (k *generationKernel) Task(c *Ctx) {
	for r := 0; r < k.rounds; r++ {
		// Uneven arrival: each round a different task is the laggard.
		if r%c.NumTasks() == c.ID() {
			c.Compute(3000)
		}
		c.Barrier()
	}
	k.out.Store(c, c.ID()*8, float64(k.rounds))
}
func (k *generationKernel) Verify(p *Program) error {
	for i := 0; i < p.NumTasks(); i++ {
		if got := k.out.Get(p, i*8); got != float64(k.rounds) {
			return fmt.Errorf("task %d completed %v rounds", i, got)
		}
	}
	return nil
}

// TestSequentialMachineIsSingleNode: sequential mode must run on one node
// with all memory local (the fair Figure 4 baseline).
func TestSequentialMachineIsSingleNode(t *testing.T) {
	k := &sumKernel{n: 4096}
	res, err := Run(Options{Mode: ModeSequential, CMPs: 16}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.CMPs != 1 {
		t.Fatalf("sequential ran on %d CMPs", res.CMPs)
	}
	if res.Mem.RemoteDirReqs != 0 {
		t.Fatalf("sequential made %d remote requests", res.Mem.RemoteDirReqs)
	}
}
