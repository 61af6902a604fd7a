package core

import (
	"fmt"
	"testing"
)

// sumKernel partitions an array among tasks, computes partial sums into a
// shared output, barriers, then task 0 reduces. Exercises loads, stores,
// barriers, and verification.
type sumKernel struct {
	n    int
	data F64
	part F64
	out  F64
}

func (k *sumKernel) Name() string { return "sum" }

func (k *sumKernel) Setup(p *Program) {
	k.data = p.AllocF64(k.n)
	k.part = p.AllocF64(p.NumTasks() * 8) // padded: one line per task
	k.out = p.AllocF64(1)
	for i := 0; i < k.n; i++ {
		k.data.Set(p, i, float64(i%17)+0.5)
	}
}

func (k *sumKernel) Task(c *Ctx) {
	nt := c.NumTasks()
	lo, hi := k.n*c.ID()/nt, k.n*(c.ID()+1)/nt
	s := 0.0
	for i := lo; i < hi; i++ {
		s += k.data.Load(c, i)
		c.Compute(2)
	}
	k.part.Store(c, c.ID()*8, s)
	c.Barrier()
	if c.ID() == 0 {
		total := 0.0
		for t := 0; t < nt; t++ {
			total += k.part.Load(c, t*8)
		}
		k.out.Store(c, 0, total)
	}
	c.Barrier()
}

func (k *sumKernel) Verify(p *Program) error {
	want := 0.0
	for i := 0; i < k.n; i++ {
		want += float64(i%17) + 0.5
	}
	if got := k.out.Get(p, 0); got != want {
		return fmt.Errorf("sum = %v, want %v", got, want)
	}
	return nil
}

func runSum(t *testing.T, opts Options) *Result {
	t.Helper()
	k := &sumKernel{n: 4096}
	res, err := Run(opts, k)
	if err != nil {
		t.Fatalf("Run(%v): %v", opts.Mode, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("verify(%v): %v", opts.Mode, res.VerifyErr)
	}
	return res
}

func TestModesProduceCorrectResults(t *testing.T) {
	for _, opts := range []Options{
		{Mode: ModeSequential, CMPs: 1},
		{Mode: ModeSingle, CMPs: 4},
		{Mode: ModeDouble, CMPs: 4},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenLocal},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: ZeroTokenLocal},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenGlobal},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: ZeroTokenGlobal},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenGlobal, TransparentLoads: true},
		{Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenGlobal, TransparentLoads: true, SelfInvalidate: true},
	} {
		res := runSum(t, opts)
		if res.Cycles <= 0 {
			t.Errorf("%v: cycles = %d", opts.Mode, res.Cycles)
		}
	}
}

func TestModesAreDeterministic(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeDouble, ModeSlipstream} {
		opts := Options{Mode: mode, CMPs: 4, ARSync: OneTokenLocal}
		a := runSum(t, opts)
		b := runSum(t, opts)
		if a.Cycles != b.Cycles {
			t.Errorf("%v: nondeterministic cycles %d vs %d", mode, a.Cycles, b.Cycles)
		}
		if a.Mem != b.Mem {
			t.Errorf("%v: nondeterministic memory stats", mode)
		}
	}
}

func TestSingleModeSpeedsUpOverSequential(t *testing.T) {
	seq := runSum(t, Options{Mode: ModeSequential})
	par := runSum(t, Options{Mode: ModeSingle, CMPs: 4})
	if par.Cycles >= seq.Cycles {
		t.Errorf("single@4 (%d cycles) not faster than sequential (%d)", par.Cycles, seq.Cycles)
	}
}

func TestTaskCounts(t *testing.T) {
	if res := runSum(t, Options{Mode: ModeSingle, CMPs: 4}); len(res.Tasks) != 4 {
		t.Errorf("single: %d tasks, want 4", len(res.Tasks))
	}
	if res := runSum(t, Options{Mode: ModeDouble, CMPs: 4}); len(res.Tasks) != 8 {
		t.Errorf("double: %d tasks, want 8", len(res.Tasks))
	}
	res := runSum(t, Options{Mode: ModeSlipstream, CMPs: 4})
	if len(res.Tasks) != 4 || len(res.ATasks) != 4 {
		t.Errorf("slipstream: %d R + %d A tasks, want 4 + 4", len(res.Tasks), len(res.ATasks))
	}
}

func TestBreakdownAccountsForAllTime(t *testing.T) {
	res := runSum(t, Options{Mode: ModeSingle, CMPs: 4})
	for i, bd := range res.Tasks {
		total := bd.Total()
		// Every task's categories must sum close to the run length (tasks
		// finish within a barrier-release of each other).
		if total > res.Cycles || total < res.Cycles*9/10 {
			t.Errorf("task %d breakdown sums to %d of %d cycles: %v", i, total, res.Cycles, bd)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	k := &sumKernel{n: 64}
	if _, err := Run(Options{Mode: ModeSingle, CMPs: 2, TransparentLoads: true}, k); err == nil {
		t.Error("transparent loads outside slipstream mode not rejected")
	}
	if _, err := Run(Options{Mode: ModeSlipstream, CMPs: 2, SelfInvalidate: true}, k); err == nil {
		t.Error("SI without transparent loads not rejected")
	}
}

// lockKernel exercises mutual exclusion: every task increments a shared
// counter m times under a lock.
type lockKernel struct {
	m    int
	want int
	ctr  F64
}

func (k *lockKernel) Name() string { return "lock" }
func (k *lockKernel) Setup(p *Program) {
	k.ctr = p.AllocF64(1)
}
func (k *lockKernel) Task(c *Ctx) {
	for i := 0; i < k.m; i++ {
		c.Lock(1)
		v := k.ctr.Load(c, 0)
		c.Compute(5)
		k.ctr.Store(c, 0, v+1)
		c.Unlock(1)
	}
	c.Barrier()
}
func (k *lockKernel) Verify(p *Program) error {
	got := k.ctr.Get(p, 0)
	if got != float64(k.want) {
		return fmt.Errorf("counter = %v, want %d", got, k.want)
	}
	return nil
}

// queueWatchKernel runs lockKernel's critical sections and checks the
// lock's waiter queue after every Lock and Unlock: its storage may move
// only when the queue outgrows its capacity.
type queueWatchKernel struct {
	lockKernel
	storage  *syncWaiter
	cap      int
	moves    int // storage changes
	badMoves int // storage changes that did not grow the capacity
}

func (k *queueWatchKernel) Task(c *Ctx) {
	for i := 0; i < k.m; i++ {
		c.Lock(1)
		k.watch(c)
		v := k.ctr.Load(c, 0)
		c.Compute(5)
		k.ctr.Store(c, 0, v+1)
		c.Unlock(1)
		k.watch(c)
	}
	c.Barrier()
}

func (k *queueWatchKernel) watch(c *Ctx) {
	q := c.run.lock(1).queue
	if cap(q) == 0 {
		return
	}
	storage := &q[:cap(q)][0]
	if storage != k.storage {
		k.moves++
		if k.storage != nil && cap(q) <= k.cap {
			k.badMoves++
		}
	}
	k.storage, k.cap = storage, cap(q)
}

// TestLockQueueKeepsStorage pins the lock FIFO's reuse of its backing
// array: granting the lock to the oldest waiter shifts the queue down, so
// after the first contention Lock's append grows it only to reach a new
// peak number of waiters.
func TestLockQueueKeepsStorage(t *testing.T) {
	k := &queueWatchKernel{lockKernel: lockKernel{m: 25, want: 8 * 25}}
	res, err := Run(Options{Mode: ModeSingle, CMPs: 8}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if k.moves == 0 {
		t.Fatal("the lock was never contended; the test is vacuous")
	}
	if k.badMoves > 0 {
		t.Errorf("lock queue storage moved %d of %d times without growing", k.badMoves, k.moves)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeDouble, ModeSlipstream} {
		k := &lockKernel{m: 25}
		opts := Options{Mode: mode, CMPs: 4}
		if mode == ModeSlipstream {
			opts.ARSync = OneTokenGlobal
		}
		tasks := 4
		if mode == ModeDouble {
			tasks = 8
		}
		k.want = tasks * k.m
		res, err := Run(opts, k)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.VerifyErr != nil {
			// In slipstream mode the A-streams' loads inside the critical
			// section are racy but their stores are discarded, so the
			// counter must still be exact.
			t.Errorf("%v: %v", mode, res.VerifyErr)
		}
		if mode != ModeSequential {
			var lockTime int64
			for _, bd := range res.Tasks {
				lockTime += bd.Lock
			}
			if lockTime == 0 {
				t.Errorf("%v: no lock wait time recorded", mode)
			}
		}
	}
}

// eventKernel: task 0 produces a value and signals; all others wait.
type eventKernel struct {
	flagged F64
}

func (k *eventKernel) Name() string { return "event" }
func (k *eventKernel) Setup(p *Program) {
	k.flagged = p.AllocF64(1)
}
func (k *eventKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.Compute(5000)
		k.flagged.Store(c, 0, 42)
		c.SignalEvent(7)
	} else {
		c.WaitEvent(7)
		if got := k.flagged.Load(c, 0); got != 42 {
			panic("event consumer read unset value")
		}
	}
	c.Barrier()
}
func (k *eventKernel) Verify(p *Program) error { return nil }

func TestEventSignalWait(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeSlipstream} {
		opts := Options{Mode: mode, CMPs: 4}
		if mode == ModeSlipstream {
			opts.ARSync = ZeroTokenGlobal
		}
		res, err := Run(opts, &eventKernel{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Cycles < 5000 {
			t.Errorf("%v: finished before the producer's compute", mode)
		}
	}
}

// onceKernel: each task reads one "input" value through Once; in slipstream
// mode the A-stream must receive the same value without executing f.
type onceKernel struct {
	calls int
	out   I64
}

func (k *onceKernel) Name() string { return "once" }
func (k *onceKernel) Setup(p *Program) {
	k.out = p.AllocI64(p.NumTasks() * 8)
}
func (k *onceKernel) Task(c *Ctx) {
	v := c.Once(func() int64 {
		k.calls++
		return int64(100 + c.ID())
	})
	k.out.Store(c, c.ID()*8, v)
	c.Barrier()
}
func (k *onceKernel) Verify(p *Program) error {
	for i := 0; i < k.out.N/8; i++ {
		if got := k.out.Get(p, i*8); got != int64(100+i) {
			return fmt.Errorf("task %d stored %d, want %d", i, got, 100+i)
		}
	}
	return nil
}

func TestOnceForwardsValuesToAStream(t *testing.T) {
	k := &onceKernel{}
	res, err := Run(Options{Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenLocal}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	// f must run once per logical task (R only), never in the A-stream.
	if k.calls != 4 {
		t.Errorf("Once executed %d times, want 4", k.calls)
	}
}
