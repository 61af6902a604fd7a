package core

import (
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/sim"
	"slipstream/internal/stats"
)

// Ctx is a task's execution context: kernels issue all simulated work
// (computation, shared-memory accesses, synchronization) through it. A Ctx
// is bound to one processor for the duration of the run.
//
// In slipstream mode the A-stream and R-stream of a pair run the same
// kernel body with the same logical task id; the Ctx transparently applies
// the A-stream reduction rules (skip synchronization, skip or convert
// shared stores, transparent loads).
type Ctx struct {
	run  *Runner
	proc *sim.Proc
	cpu  *memsys.CPU
	id   int
	role memsys.Role
	pr   *pair // non-nil in slipstream mode

	session int // barriers/event-waits passed
	csDepth int // critical-section nesting

	bd   stats.Breakdown
	vnow int64 // local clock; may run ahead of the engine on private work

	// pfSlots models the A-stream's small store buffer used for exclusive
	// prefetches: each slot holds the drain time of one outstanding
	// prefetch. Conversions are dropped while all slots are busy.
	pfSlots [4]int64

	// fastForward replays the kernel functionally (no simulated time)
	// after an A-stream refork, until ffTarget sessions have been passed.
	fastForward bool
	ffTarget    int

	// t0 is the local time this incarnation started accumulating its
	// breakdown: zero for tasks spawned at the start of the run, the
	// fast-forward completion time for a reforked A-stream.
	t0 int64

	// missReq is the blocking access that access leaves for miss, and
	// missFn is the bound miss method, created once at spawn so that
	// issuing a miss through WaitThen allocates nothing.
	missReq memsys.Req
	missFn  func() int64

	done     int64
	finished bool
}

// ID returns the logical task id (A and R streams of a pair share one id).
func (c *Ctx) ID() int { return c.id }

// NumTasks returns the number of logical tasks partitioning the work.
func (c *Ctx) NumTasks() int { return c.run.prog.numTasks }

// Now returns the task's current local simulated time in cycles.
func (c *Ctx) Now() int64 {
	c.bump()
	return c.vnow
}

func (c *Ctx) engNow() int64 { return c.run.eng.Now() }

// bump keeps the local clock from falling behind the global clock.
func (c *Ctx) bump() {
	if n := c.engNow(); n > c.vnow {
		c.vnow = n
	}
}

// flush yields until the global clock catches up with the local clock.
// Every globally visible operation starts with a flush.
func (c *Ctx) flush() {
	c.bump()
	if c.vnow > c.engNow() {
		c.proc.WaitUntil(c.vnow)
	}
}

// maybeYield yields if the local clock has run too far ahead.
func (c *Ctx) maybeYield() {
	if c.vnow-c.engNow() > c.run.opts.skew {
		c.proc.WaitUntil(c.vnow)
	}
}

// emit fills the event's task-identity fields and sends it on the
// observation bus. Callers guard with `c.run.bus != nil` so the unobserved
// path constructs no Event.
func (c *Ctx) emit(e obs.Event) {
	e.Task = c.id
	e.CPU = c.cpu.ID
	e.Session = c.session
	e.Role = obs.Role(c.role)
	c.run.bus.Emit(&e)
}

// Compute charges cycles of private computation.
func (c *Ctx) Compute(cycles int64) {
	if c.fastForward || cycles <= 0 {
		return
	}
	c.bd.Busy += cycles
	c.bump()
	c.vnow += cycles
	c.maybeYield()
}

// access runs one shared-memory access through the memory system, charging
// busy and stall time. A private hit advances the local clock only. Any
// other access blocks: it is issued by miss, as an engine event once the
// global clock reaches the local clock, and the task resumes when it
// completes.
//
// Unobserved, access looks its L1 frame up itself and asks memsys's hit
// rules (Line.PrivateHit), so a hit builds no Req: System.HitL1 does it.
// Observed, access builds the full Req, asks System.IsL1Hit and runs a
// predicted hit through System.Access, so observers and the auditor see
// it as any access.
//
//simlint:hotpath task access path: every timed load and store of every simulated task lands here, and an unobserved private hit completes here
func (c *Ctx) access(kind memsys.AccessKind, addr memsys.Addr) {
	sys := c.run.sys
	c.bump()
	if sys.Bus == nil {
		if l1 := c.cpu.L1.Lookup(addr.Line(sys.P.LineSize)); l1.PrivateHit(kind, c.role, c.csDepth > 0) {
			c.vnow = sys.HitL1(c.cpu, l1, c.vnow)
			c.hit()
			return
		}
	} else if req := c.req(kind, addr); sys.IsL1Hit(req) {
		c.vnow = sys.Access(req, c.vnow)
		c.hit()
		return
	}
	c.missReq = c.req(kind, addr)
	c.proc.WaitThen(c.vnow, c.missFn)
}

// hit charges a private hit that access has performed, and yields if the
// local clock has run too far ahead.
func (c *Ctx) hit() {
	c.bd.Busy += c.run.sys.P.L1Hit
	c.maybeYield()
}

// req builds the memory-system request for an access by this task.
func (c *Ctx) req(kind memsys.AccessKind, addr memsys.Addr) memsys.Req {
	r := memsys.Req{
		CPU:     c.cpu,
		Kind:    kind,
		Addr:    addr,
		Role:    c.role,
		InCS:    c.csDepth > 0,
		Task:    c.id,
		Session: c.session,
	}
	if kind == memsys.Read && c.role == memsys.RoleA && c.run.opts.TransparentLoads {
		// Transparent loads when ahead of the R-stream or in a (skipped)
		// critical section (Section 4.1).
		if c.session > c.pr.r.session || c.csDepth > 0 {
			r.Transparent = true
		}
	}
	return r
}

// miss performs the blocking access left in c.missReq at the current
// global time and returns its completion time, at which the task resumes.
// It runs wherever the event loop is running: in whichever process, or
// the caller of the engine, holds control.
func (c *Ctx) miss() int64 {
	sys := c.run.sys
	req := &c.missReq
	now := c.engNow()
	if c.run.opts.ForwardQueue && c.pr != nil && c.role == memsys.RoleR {
		// Drain a couple of forwarding-queue entries: background
		// L2-to-L1 pushes of lines the A-stream recently fetched.
		for _, line := range c.pr.fqPop(2) {
			sys.PushL1(c.cpu, line, now)
		}
	}
	done := sys.Access(*req, now)
	if c.run.opts.ForwardQueue && c.role == memsys.RoleA && req.Kind == memsys.Read {
		c.pr.fqPush(req.Addr.Line(sys.P.LineSize))
	}
	hitCost := sys.P.L1Hit
	c.bd.Busy += hitCost
	c.bd.MemStall += done - now - hitCost
	c.vnow = done
	return done
}

// LoadF performs a timed shared-memory load of a float64.
func (c *Ctx) LoadF(a memsys.Addr) float64 {
	if !c.fastForward {
		c.access(memsys.Read, a)
	}
	return c.run.sys.Mem.LoadF(a)
}

// LoadI performs a timed shared-memory load of an int64.
func (c *Ctx) LoadI(a memsys.Addr) int64 {
	if !c.fastForward {
		c.access(memsys.Read, a)
	}
	return c.run.sys.Mem.LoadI(a)
}

// StoreF performs a timed shared-memory store of a float64. A-stream
// stores are executed but not committed: the value is discarded, and the
// store becomes an exclusive prefetch when the A-stream is in the same
// session as its R-stream and outside critical sections (Section 3.3).
func (c *Ctx) StoreF(a memsys.Addr, v float64) {
	if c.storeTiming(a) {
		c.run.sys.Mem.StoreF(a, v)
	}
}

// StoreI performs a timed shared-memory store of an int64, with the same
// A-stream semantics as StoreF.
func (c *Ctx) StoreI(a memsys.Addr, v int64) {
	if c.storeTiming(a) {
		c.run.sys.Mem.StoreI(a, v)
	}
}

// storeTiming charges the store's time and reports whether the value
// should be committed to memory.
func (c *Ctx) storeTiming(a memsys.Addr) bool {
	if c.fastForward {
		return false
	}
	if c.role == memsys.RoleA {
		if c.session == c.pr.r.session && c.csDepth == 0 {
			// Converted to a non-binding exclusive prefetch: issued through
			// a small store buffer so the A-stream does not wait for it,
			// but bursts cannot flood the directory controllers. While all
			// buffer slots are busy the store is simply skipped (the paper
			// converts only "some" skipped stores).
			c.flush()
			now := c.engNow()
			for i := range c.pfSlots {
				if c.pfSlots[i] <= now {
					c.pfSlots[i] = c.run.sys.Access(memsys.Req{
						CPU:     c.cpu,
						Kind:    memsys.PrefetchExcl,
						Addr:    a,
						Role:    memsys.RoleA,
						Task:    c.id,
						Session: c.session,
					}, now)
					break
				}
			}
		}
		// Executed but not committed: one pipeline slot.
		c.bd.Busy++
		c.bump()
		c.vnow++
		c.maybeYield()
		return false
	}
	// R-stream / conventional store: the paper's MIPSY cores block on a
	// store miss as on a load.
	c.access(memsys.Write, a)
	return true
}

// Barrier joins the program-wide barrier. The A-stream skips it, consuming
// an A-R token instead; the R-stream additionally performs slipstream
// duties (token insertion, deviation check, self-invalidation processing).
func (c *Ctx) Barrier() {
	if c.fastForward {
		c.ffSync()
		return
	}
	if c.role == memsys.RoleA {
		c.aSync()
		return
	}
	c.flush()
	r := c.run
	if c.pr != nil {
		if r.opts.SelfInvalidate {
			r.sys.ProcessSI(c.cpu.Node, c.engNow())
		}
		c.checkDeviation()
		if r.opts.AdaptiveARSync {
			r.adaptPolicy(c.pr, c.cpu.Node)
		}
		if !c.pr.policy.Global() {
			c.pr.sem.put(c.engNow())
		}
	}
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvSession, Time: c.engNow(), Note: "barrier-entry"})
	}
	t0 := c.engNow()
	c.barrierWait()
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvBarrier, Time: c.engNow(), Dur: c.engNow() - t0})
	}
	if c.pr != nil && c.pr.policy.Global() {
		c.pr.sem.put(c.engNow())
	}
	c.session++
}

// barrierWait performs the centralized barrier protocol: an arrival
// message to the barrier's home directory controller (serialized there),
// then a release broadcast by the last arriver.
func (c *Ctx) barrierWait() {
	r := c.run
	b := &r.barrier
	t0 := c.engNow()
	home := r.sys.Nodes[0]
	tmsg := t0 + r.transit(c.cpu.Node, home)
	tArr := home.DC(0).Acquire(tmsg, syncOcc) + syncOcc
	b.arrived++
	if b.arrived < b.n {
		//simlint:ignore hotpathalloc waiter list is bounded by the task count; capacity is stable after the first barrier
		b.waiters = append(b.waiters, syncWaiter{c.proc, c.cpu.Node})
		c.park("barrier")
	} else {
		for i, w := range b.waiters {
			w.proc.Wake(tArr + int64(i+1)*syncOcc + r.transit(home, w.node))
		}
		b.waiters = b.waiters[:0]
		b.arrived = 0
		c.proc.WaitUntil(tArr + r.transit(home, c.cpu.Node))
	}
	now := c.engNow()
	c.bd.Barrier += now - t0
	c.vnow = now
}

// aSync is the A-stream's action at a session boundary: consume a token,
// waiting for the R-stream if the pool is empty.
func (c *Ctx) aSync() {
	c.flush()
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvSession, Time: c.engNow(), Note: "a-boundary"})
	}
	wait := c.pr.sem.take(c.proc, c.engNow)
	c.bd.ARSync += wait
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvToken, Time: c.engNow(), Dur: wait})
	}
	c.vnow = c.engNow()
	c.session++
}

// park wraps proc.Park with EvPark/EvWake observation; note names the
// object waited on.
func (c *Ctx) park(note string) {
	if c.run.bus == nil {
		c.proc.Park()
		return
	}
	t0 := c.engNow()
	c.emit(obs.Event{Kind: obs.EvPark, Time: t0, Note: note})
	c.proc.Park()
	c.emit(obs.Event{Kind: obs.EvWake, Time: c.engNow(), Dur: c.engNow() - t0, Note: note})
}

// ffSync advances sessions during fast-forward replay; reaching the fork
// point resumes normal A-stream execution.
func (c *Ctx) ffSync() {
	c.session++
	if c.session >= c.ffTarget {
		c.fastForward = false
		c.bump()
		c.vnow = c.engNow()
		c.t0 = c.vnow
	}
}

// checkDeviation implements the paper's software-only divergence check: if
// the R-stream ends a session before its A-stream has completed the
// previous one, the A-stream is assumed to have deviated and is killed and
// reforked from the R-stream's current point.
func (c *Ctx) checkDeviation() {
	a := c.pr.a
	if a == nil || a.finished || a.fastForward {
		return
	}
	if a.session < c.session {
		c.run.reforkA(c.pr, c)
	}
}

// Lock acquires the lock with the given id. The A-stream skips the
// acquisition but still tracks critical-section nesting, which gates store
// conversion and transparent loads.
func (c *Ctx) Lock(id int) {
	c.csDepth++
	if c.fastForward || c.role == memsys.RoleA {
		return
	}
	c.flush()
	r := c.run
	ls := r.lock(id)
	t0 := c.engNow()
	home := r.sys.Nodes[id%len(r.sys.Nodes)]
	tmsg := t0 + r.transit(c.cpu.Node, home)
	tAt := home.DC(0).Acquire(tmsg, syncOcc) + syncOcc
	if !ls.held {
		ls.held = true
		c.proc.WaitUntil(tAt + r.transit(home, c.cpu.Node))
	} else {
		//simlint:ignore hotpathalloc lock queue is bounded by the task count; capacity is stable after first contention
		ls.queue = append(ls.queue, syncWaiter{c.proc, c.cpu.Node})
		c.park("lock")
	}
	now := c.engNow()
	c.bd.Lock += now - t0
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvLock, Time: now, Addr: uint64(id), Dur: now - t0})
	}
	c.vnow = now
}

// Unlock releases the lock, granting it to the oldest waiter. Slipstream
// R-streams process pending self-invalidations here, overlapped with the
// release (Section 4.2).
func (c *Ctx) Unlock(id int) {
	c.csDepth--
	if c.fastForward || c.role == memsys.RoleA {
		return
	}
	c.flush()
	r := c.run
	if c.pr != nil && r.opts.SelfInvalidate {
		r.sys.ProcessSI(c.cpu.Node, c.engNow())
	}
	ls := r.lock(id)
	t0 := c.engNow()
	home := r.sys.Nodes[id%len(r.sys.Nodes)]
	tmsg := t0 + r.transit(c.cpu.Node, home)
	tAt := home.DC(0).Acquire(tmsg, syncOcc) + syncOcc
	if len(ls.queue) > 0 {
		w := ls.queue[0]
		// Shift rather than reslice, so Lock's append keeps reusing the
		// queue's backing array.
		n := copy(ls.queue, ls.queue[1:])
		ls.queue = ls.queue[:n]
		w.proc.Wake(tAt + r.transit(home, w.node))
	} else {
		ls.held = false
	}
	// The release is a non-blocking store; the task continues.
	c.bd.Busy++
	c.vnow++
	c.maybeYield()
}

// WaitEvent blocks until the one-shot event has been signaled. Like a
// barrier, it ends a session; the A-stream replaces it with a token
// consume.
func (c *Ctx) WaitEvent(id int) {
	if c.fastForward {
		c.ffSync()
		return
	}
	if c.role == memsys.RoleA {
		c.aSync()
		return
	}
	c.flush()
	r := c.run
	if c.pr != nil {
		if r.opts.SelfInvalidate {
			r.sys.ProcessSI(c.cpu.Node, c.engNow())
		}
		c.checkDeviation()
		if r.opts.AdaptiveARSync {
			r.adaptPolicy(c.pr, c.cpu.Node)
		}
		if !c.pr.policy.Global() {
			c.pr.sem.put(c.engNow())
		}
	}
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvSession, Time: c.engNow(), Note: "event-entry"})
	}
	es := r.event(id)
	t0 := c.engNow()
	if !es.signaled {
		//simlint:ignore hotpathalloc waiter list is bounded by the task count; capacity is stable after the first wait
		es.waiters = append(es.waiters, syncWaiter{c.proc, c.cpu.Node})
		c.park("event")
	} else {
		// Check of an already-set flag: one round trip to its home.
		home := r.sys.Nodes[id%len(r.sys.Nodes)]
		c.proc.WaitUntil(t0 + 2*r.transit(c.cpu.Node, home))
	}
	now := c.engNow()
	c.bd.Barrier += now - t0
	c.vnow = now
	if c.run.bus != nil {
		c.emit(obs.Event{Kind: obs.EvBarrier, Time: now, Dur: now - t0, Note: "event"})
	}
	if c.pr != nil && c.pr.policy.Global() {
		c.pr.sem.put(c.engNow())
	}
	c.session++
}

// SignalEvent sets the one-shot event and wakes its waiters. The A-stream
// skips it (it is a store to a shared flag).
func (c *Ctx) SignalEvent(id int) {
	if c.fastForward || c.role == memsys.RoleA {
		return
	}
	c.flush()
	r := c.run
	es := r.event(id)
	es.signaled = true
	home := r.sys.Nodes[id%len(r.sys.Nodes)]
	t := c.engNow() + r.transit(c.cpu.Node, home)
	for _, w := range es.waiters {
		w.proc.Wake(t + r.transit(home, w.node))
	}
	es.waiters = nil
	c.bd.Busy++
	c.vnow++
	c.maybeYield()
}

// Once runs f exactly once per logical task: the R-stream (or the task, in
// non-slipstream modes) executes it; the A-stream skips it and receives
// the R-stream's result through a local semaphore (Section 3.2's handling
// of input operations and other global side effects).
func (c *Ctx) Once(f func() int64) int64 {
	if c.role == memsys.RoleA || c.fastForward {
		p := c.pr
		if !c.fastForward {
			// Wait from the local clock, not the possibly older global
			// clock: without the flush, ARSync would absorb cycles already
			// charged as Busy and vnow could move backwards.
			c.flush()
		}
		for p.aConsumed >= len(p.onceVals) {
			t0 := c.engNow()
			p.onceWait = c.proc
			if c.fastForward || c.run.bus == nil {
				c.proc.Park()
			} else {
				c.park("once")
			}
			if !c.fastForward {
				c.bd.ARSync += c.engNow() - t0
				c.vnow = c.engNow()
			}
		}
		v := p.onceVals[p.aConsumed]
		p.aConsumed++
		return v
	}
	v := f()
	if c.pr != nil {
		//simlint:ignore hotpathalloc once-value log capacity is reused across sessions; grows only until the deepest R-A lead is reached
		c.pr.onceVals = append(c.pr.onceVals, v)
		if c.pr.onceWait != nil {
			c.pr.onceWait.Wake(c.engNow())
			c.pr.onceWait = nil
		}
	}
	c.bd.Busy++
	c.bump()
	c.vnow++
	return v
}
