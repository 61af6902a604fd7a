package sim

// errKilled is the sentinel panic value used to unwind a killed process.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

// Proc is a simulated process: a goroutine whose execution is interleaved
// with simulated time under strict handoff. All Proc methods except Kill
// and Wake must be called from the process's own goroutine.
type Proc struct {
	eng *Engine
	// resume/yieldCh are this process's strict-handoff pair: dispatch sends
	// on resume and blocks on yieldCh; the process does the reverse. The
	// channels are per-process so a handoff only ever involves the
	// dispatcher and this one goroutine.
	resume  chan struct{}
	yieldCh chan struct{}
	name    string
	done    bool
	parked  bool
	killed  bool

	// dispatchFn is the bound dispatch method, created once at Go so the
	// wait/wake hot paths (WaitUntil, Wake, Kill) schedule it without
	// allocating a fresh method value per call.
	dispatchFn func()
}

// Go starts a new simulated process running fn. The process begins at the
// current simulated time, after already-queued events at this time.
// The goroutine-and-channel machinery below is the one sanctioned use of
// concurrency in simulation code: resume/yield implement strict handoff,
// so exactly one goroutine — the event loop or a single process — runs at
// any moment and the interleaving is fully determined by the event queue.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	//simlint:ignore nondeterminism strict handoff: resume carries control to exactly one parked goroutine
	//simlint:ignore hotpathalloc one process record and channel pair per spawned task, amortized over its simulated lifetime
	p := &Proc{eng: e, resume: make(chan struct{}), name: name}
	//simlint:ignore nondeterminism strict handoff: yieldCh returns control from exactly this goroutine to its dispatcher
	//simlint:ignore hotpathalloc one yield channel per spawned task, amortized over its simulated lifetime
	p.yieldCh = make(chan struct{})
	p.dispatchFn = p.dispatch
	//simlint:ignore hotpathalloc process table is bounded by the spawned task count
	e.procs = append(e.procs, p)
	//simlint:ignore hotpathalloc one trampoline closure per spawned process, amortized over its lifetime
	e.After(0, func() {
		//simlint:ignore nondeterminism strict handoff: the new goroutine blocks on resume before running
		//simlint:ignore hotpathalloc one goroutine-body closure per spawned process, amortized over its lifetime
		go func() {
			//simlint:ignore hotpathalloc one deferred-cleanup closure per spawned process, amortized over its lifetime
			defer func() {
				p.done = true
				p.parked = false
				if r := recover(); r != nil {
					if _, ok := r.(killedError); !ok {
						// Re-panicking in a goroutine would crash without
						// context; surface the original value.
						//simlint:ignore nondeterminism strict handoff: hands control back to the event loop
						p.yieldCh <- struct{}{}
						panic(r)
					}
				}
				//simlint:ignore nondeterminism strict handoff: hands control back to the event loop
				p.yieldCh <- struct{}{}
			}()
			//simlint:ignore nondeterminism strict handoff: blocks until the event loop dispatches this process
			<-p.resume
			p.checkKilled()
			fn(p)
		}()
		p.dispatch()
	})
	return p
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill was called on the process.
func (p *Proc) Killed() bool { return p.killed }

// dispatch transfers control from the event loop (or the currently running
// process) into p, and returns when p yields back.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.parked = false
	//simlint:ignore nondeterminism strict handoff: control moves to p, then blocks here until p yields
	p.resume <- struct{}{}
	//simlint:ignore nondeterminism strict handoff: control moves to p, then blocks here until p yields
	<-p.yieldCh
}

// yield returns control to the event loop and blocks until dispatched again.
func (p *Proc) yield() {
	//simlint:ignore nondeterminism strict handoff: returns control to the event loop, then blocks until redispatched
	p.yieldCh <- struct{}{}
	//simlint:ignore nondeterminism strict handoff: returns control to the event loop, then blocks until redispatched
	<-p.resume
	p.checkKilled()
}

func (p *Proc) checkKilled() {
	if p.killed {
		panic(killedError{})
	}
}

// WaitUntil blocks the process until absolute simulated time t.
// Waiting for a past time returns immediately.
func (p *Proc) WaitUntil(t int64) {
	if t <= p.eng.now {
		p.checkKilled()
		return
	}
	p.eng.At(t, p.dispatchFn)
	p.yield()
}

// Delay blocks the process for d cycles.
func (p *Proc) Delay(d int64) { p.WaitUntil(p.eng.now + d) }

// Park blocks the process until another process or event calls Wake.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Wake schedules parked process p to resume at absolute time t. It is safe
// to call from any simulation context (the event loop or another process).
func (p *Proc) Wake(t int64) {
	p.eng.At(t, p.dispatchFn)
}

// Kill marks the process as killed and, if it is parked, wakes it so that
// it unwinds. The process's goroutine exits at its next blocking point.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.parked {
		p.eng.At(p.eng.now, p.dispatchFn)
	}
}
