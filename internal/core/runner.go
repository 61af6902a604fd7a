package core

import (
	"fmt"
	"runtime/debug"
	"strings"

	"slipstream/internal/audit"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/sim"
	"slipstream/internal/stats"
)

// SimVersion identifies the simulation semantics. Persistent result
// caches fold it into their keys and discard entries written by other
// versions; bump it whenever a change alters simulated timing or the
// reported statistics.
const SimVersion = "2"

// Runner owns one simulated run of a kernel under a mode.
type Runner struct {
	opts   Options
	eng    *sim.Engine
	sys    *memsys.System
	prog   *Program
	kernel Kernel

	ctxs  []*Ctx  // R-stream / conventional task contexts
	pairs []*pair // slipstream pairs, indexed by logical task

	bus *obs.Bus       // observation bus; nil when nothing is attached
	aud *audit.Auditor // non-nil when the run is audited

	// ev is the scratch event reused by every Runner emission, mirroring
	// the memsys idiom: observers must not retain the pointer past Event,
	// so emitting costs no allocation.
	ev obs.Event

	barrier barrierState
	locks   map[int]*lockState
	events  map[int]*eventState

	recoveries     int
	policySwitches int
}

// Run simulates the kernel under the given options and returns the
// measured result. A non-nil error reports configuration problems or a
// simulation that deadlocked, exceeded its cycle budget or panicked;
// numeric verification failures are reported in Result.VerifyErr.
func Run(opts Options, k Kernel) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	sys, err := memsys.NewSystem(eng, opts.Machine)
	if err != nil {
		return nil, err
	}
	sys.Classify = opts.Mode == ModeSlipstream

	// All observation consumers — caller observers and the auditor —
	// attach to one bus; emission sites pay a single pointer test when it
	// stays nil.
	bus := obs.NewBus(opts.Observers...)
	var aud *audit.Auditor
	if opts.Audit || auditForced {
		aud = audit.New(sys)
		bus = bus.Attach(aud)
	}
	if bus != nil {
		sys.Bus = bus
		eng.SetMonitor(&obs.ClockMonitor{Bus: bus})
	}

	numTasks := opts.CMPs
	switch opts.Mode {
	case ModeSequential:
		numTasks = 1
	case ModeDouble:
		numTasks = 2 * opts.CMPs
	}

	r := &Runner{
		opts:   opts,
		eng:    eng,
		sys:    sys,
		kernel: k,
		bus:    bus,
		aud:    aud,
		locks:  make(map[int]*lockState),
		events: make(map[int]*eventState),
	}
	r.prog = &Program{mem: sys.Mem, numTasks: numTasks}
	r.barrier.n = numTasks

	drained, err := r.simulate()
	if err != nil {
		return nil, err
	}
	if !drained {
		r.abort()
		return nil, fmt.Errorf("core: %s/%s on %d CMPs exceeded %d cycles",
			k.Name(), opts.Mode, opts.CMPs, opts.MaxCycles)
	}
	if blocked := eng.Blocked(); len(blocked) > 0 {
		names := make([]string, len(blocked))
		for i, p := range blocked {
			names[i] = p.Name()
		}
		r.abort()
		return nil, fmt.Errorf("core: %s/%s on %d CMPs deadlocked; blocked: %s",
			k.Name(), opts.Mode, opts.CMPs, strings.Join(names, ", "))
	}
	for _, c := range r.ctxs {
		if !c.finished {
			r.abort()
			return nil, fmt.Errorf("core: task %d did not finish", c.id)
		}
	}
	sys.Finalize()
	res := r.collect()
	if bus != nil {
		ev := obs.Event{Kind: obs.EvRunEnd, Time: eng.Now(), Dur: res.Cycles, Task: -1, CPU: -1}
		if opts.Mode == ModeSlipstream {
			ev.Flags |= obs.FlagSlipstream
		}
		// EvRunEnd drives the auditor's end-of-run checks (FinishRun),
		// whose sweep walks every cache.
		bus.Emit(&ev)
	}
	// Nothing reads a cache from here on: hand the frames to the next run.
	sys.Release()
	if aud != nil {
		if vs := aud.Violations(); len(vs) > 0 {
			return nil, &AuditError{Violations: vs, Dropped: aud.Dropped()}
		}
	}
	return res, nil
}

// simulate sets the kernel up, spawns its tasks and runs the engine up to
// the cycle budget, reporting whether the queue drained. A panic on the
// way, in Setup, in a task or in an event, does not reach the caller:
// simulate aborts the run and returns an error that names it and wraps
// the panic as a *sim.Panic, stack included.
func (r *Runner) simulate() (drained bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			sp, ok := v.(*sim.Panic)
			if !ok {
				// Not from a process: the stack here is still the one
				// that panicked.
				sp = &sim.Panic{Value: v, Stack: debug.Stack()}
			}
			r.abort()
			err = fmt.Errorf("core: %s/%s on %d CMPs panicked: %w",
				r.kernel.Name(), r.opts.Mode, r.opts.CMPs, sp)
		}
	}()
	r.kernel.Setup(r.prog)
	r.spawnTasks()
	return r.eng.RunUntil(r.opts.MaxCycles), nil
}

// abort ends a failed run without leaking its processes. It detaches the
// bus and the engine monitor, so neither the caller's observers nor the
// auditor see anything after the failure, kills every unfinished process,
// and runs the engine until each has unwound and its coroutine ended.
// Then nothing can touch a cache, and the memory system is released.
func (r *Runner) abort() {
	r.bus = nil
	r.sys.Bus = nil
	r.eng.SetMonitor(nil)
	for _, c := range r.ctxs {
		c.proc.Kill()
	}
	for _, p := range r.pairs {
		p.a.proc.Kill()
	}
	// A killed process unwinds at its next dispatch, which is pending or,
	// for a parked one, scheduled by Kill. Earlier A-stream incarnations
	// were killed at their refork and unwind the same way.
	r.eng.Run()
	r.sys.Release()
}

// emitTaskStart announces a task incarnation on the bus (chrome lanes and
// the auditor's A-CPU set are derived from it).
func (r *Runner) emitTaskStart(c *Ctx, refork bool) {
	if r.bus == nil {
		return
	}
	e := obs.Event{
		Kind: obs.EvTaskStart, Time: r.eng.Now(), Task: c.id, CPU: c.cpu.ID,
		Session: c.session, Role: obs.Role(c.role), Note: c.role.String(),
	}
	if refork {
		e.Flags |= obs.FlagRefork
	}
	r.bus.Emit(&e)
}

// emitTaskEnd reports a finished incarnation's measured time and breakdown.
func (r *Runner) emitTaskEnd(c *Ctx, end, measured int64) {
	if r.bus == nil {
		return
	}
	r.ev = obs.Event{
		Kind: obs.EvTaskEnd, Time: end, Dur: measured, Task: c.id, CPU: c.cpu.ID,
		Session: c.session, Role: obs.Role(c.role), BD: c.bd, Note: c.role.String(),
	}
	r.bus.Emit(&r.ev)
}

// spawnTasks creates the task processes according to the execution mode.
func (r *Runner) spawnTasks() {
	switch r.opts.Mode {
	case ModeSequential:
		r.spawnTask(0, r.sys.Nodes[0].CPUs[0], memsys.RoleNone, nil)
	case ModeSingle:
		for i, n := range r.sys.Nodes {
			r.spawnTask(i, n.CPUs[0], memsys.RoleNone, nil)
		}
	case ModeDouble:
		for i := 0; i < 2*len(r.sys.Nodes); i++ {
			r.spawnTask(i, r.sys.Nodes[i/2].CPUs[i%2], memsys.RoleNone, nil)
		}
	case ModeSlipstream:
		for i, n := range r.sys.Nodes {
			p := &pair{id: i, policy: r.opts.ARSync}
			p.sem.reset(p.policy.InitialTokens())
			r.pairs = append(r.pairs, p)
			p.r = r.spawnTask(i, n.CPUs[0], memsys.RoleR, p)
			p.a = r.spawnA(p, n.CPUs[1], false, 0)
		}
	}
}

// spawnTask starts an R-stream or conventional task.
func (r *Runner) spawnTask(id int, cpu *memsys.CPU, role memsys.Role, p *pair) *Ctx {
	c := &Ctx{run: r, cpu: cpu, id: id, role: role, pr: p}
	c.missFn = c.miss
	r.ctxs = append(r.ctxs, c)
	r.emitTaskStart(c, false)
	name := fmt.Sprintf("task%d", id)
	if role == memsys.RoleR {
		name = fmt.Sprintf("task%d(R)", id)
	}
	c.proc = r.eng.Go(name, func(proc *sim.Proc) {
		c.proc = proc
		r.kernel.Task(c)
		c.drainStores()
		c.flush()
		c.done = r.eng.Now()
		c.finished = true
		r.emitTaskEnd(c, c.done, c.done)
		// The A-stream has no further purpose once its R-stream is done.
		if p != nil && p.a != nil && !p.a.finished {
			p.a.proc.Kill()
			p.a.finished = true
			p.aPast.Add(p.a.bd)
			p.a.bd = stats.Breakdown{}
		}
	})
	return c
}

// spawnA starts an A-stream incarnation. Reforked incarnations fast-forward
// functionally to ffTarget sessions before resuming timed execution.
func (r *Runner) spawnA(p *pair, cpu *memsys.CPU, refork bool, ffTarget int) *Ctx {
	//simlint:ignore hotpathalloc one context per A-stream incarnation, amortized over the incarnation's simulated lifetime
	c := &Ctx{
		run: r, cpu: cpu, id: p.id, role: memsys.RoleA, pr: p,
		fastForward: refork, ffTarget: ffTarget,
	}
	c.missFn = c.miss
	r.emitTaskStart(c, refork)
	//simlint:ignore hotpathalloc one name and one body closure per incarnation, amortized over its simulated lifetime
	c.proc = r.eng.Go(fmt.Sprintf("task%d(A)", p.id), func(proc *sim.Proc) {
		c.proc = proc
		if refork {
			proc.Delay(r.opts.ForkPenalty)
		}
		r.kernel.Task(c)
		c.finished = true
		if !c.fastForward {
			// A reforked stream that never left fast-forward has no timed
			// execution to conserve.
			r.emitTaskEnd(c, c.vnow, c.vnow-c.t0)
		}
	})
	return c
}

// reforkA implements recovery: the R-stream kills its deviated A-stream and
// forks a fresh one from its own current point (modelled as a functional
// fast-forward replay plus a fork penalty). The pair's token pool resets to
// the policy's initial value.
func (r *Runner) reforkA(p *pair, rCtx *Ctx) {
	old := p.a
	p.aPast.Add(old.bd)
	old.proc.Kill()
	old.finished = true
	r.recoveries++
	if r.bus != nil {
		r.ev = obs.Event{
			Kind: obs.EvRecovery, Time: r.eng.Now(), Task: p.id, CPU: old.cpu.ID,
			Session: rCtx.session, Role: obs.RoleA,
		}
		r.bus.Emit(&r.ev)
	}
	p.sem.reset(p.policy.InitialTokens())
	p.onceWait = nil
	// The new A-stream replays up to the barrier the R-stream is entering
	// (which ends session rCtx.session), then resumes ahead of it.
	p.a = r.spawnA(p, old.cpu, true, rCtx.session+1)
}

// collect assembles the Result after the engine drains.
func (r *Runner) collect() *Result {
	res := &Result{
		Kernel:     r.kernel.Name(),
		Mode:       r.opts.Mode,
		ARSync:     r.opts.ARSync,
		CMPs:       r.opts.CMPs,
		Mem:        r.sys.MS,
		Req:        r.sys.Req,
		TL:         r.sys.TL,
		SI:         r.sys.SIst,
		Recoveries: r.recoveries,

		PolicySwitches: r.policySwitches,
	}
	for _, p := range r.pairs {
		res.FinalPolicies = append(res.FinalPolicies, p.policy)
	}
	for _, c := range r.ctxs {
		res.Tasks = append(res.Tasks, c.bd)
		if c.done > res.Cycles {
			res.Cycles = c.done
		}
	}
	for _, p := range r.pairs {
		bd := p.aPast
		if p.a != nil {
			bd.Add(p.a.bd)
		}
		res.ATasks = append(res.ATasks, bd)
	}
	res.VerifyErr = r.kernel.Verify(r.prog)
	return res
}
