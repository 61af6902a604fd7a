package sim

// killedError is the panic value that unwinds a killed process's goroutine.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

// Proc is a simulated process: a goroutine whose execution is interleaved
// with simulated time under direct handoff. All Proc methods except Kill
// and Wake must be called from the process's own goroutine.
type Proc struct {
	eng *Engine
	// resume gives this process control: the goroutine holding control
	// sends on it after executing a dispatch of this process.
	resume chan struct{}
	name   string
	done   bool
	parked bool
	killed bool

	// dispatchFn is the bound dispatch method, created once at Go so the
	// wait/wake hot paths (WaitUntil, WaitThen, Wake, Kill) schedule it
	// without allocating a fresh method value per call.
	dispatchFn func()

	// then is the operation WaitThen left for p's next dispatch to run in
	// place of resuming p, or nil.
	then func() int64
}

// Go starts a new simulated process running fn. The process begins at the
// current simulated time, after already-queued events at this time.
// The goroutine-and-channel machinery below is the one sanctioned use of
// concurrency in simulation code: under direct handoff exactly one
// goroutine — the caller of Run, RunUntil or Step, or a single process —
// holds control at any moment, and the interleaving is fully determined by
// the event queue.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	//simlint:ignore nondeterminism direct handoff: resume carries control to exactly this process's goroutine
	//simlint:ignore hotpathalloc one process record and resume channel per spawned task, amortized over its simulated lifetime
	p := &Proc{eng: e, resume: make(chan struct{}), name: name}
	p.dispatchFn = p.dispatch
	//simlint:ignore hotpathalloc process table is bounded by the spawned task count
	e.procs = append(e.procs, p)
	//simlint:ignore nondeterminism direct handoff: the new goroutine blocks on resume until its first dispatch
	go p.run(fn)
	e.At(e.now, p.dispatchFn)
	return p
}

// run is the body of p's goroutine. Control reaches it through the resume
// channel rather than a call from the event loop, so it is a hot-path root
// of its own.
//
//simlint:hotpath process bodies: every simulated task operation runs under here, between handoffs
func (p *Proc) run(fn func(p *Proc)) {
	defer p.exit()
	<-p.resume //simlint:ignore nondeterminism direct handoff: blocks until the first dispatch of this process
	p.checkKilled()
	fn(p)
}

// exit ends p's goroutine once fn has returned or unwound: it marks p done,
// re-raises any panic other than a kill, and passes control on. The
// goroutine then ends, so finished and killed processes leave none behind.
func (p *Proc) exit() {
	p.done = true
	p.parked = false
	if r := recover(); r != nil {
		if _, ok := r.(killedError); !ok {
			panic(r)
		}
	}
	p.eng.pass(p.eng.advance())
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill was called on the process.
func (p *Proc) Killed() bool { return p.killed }

// dispatch is the event that resumes p: it names p as the process the
// goroutine running the event loop hands control to next. If WaitThen left
// an operation, dispatch runs it first on the goroutine holding control,
// and resumes p only if the time the operation returns has already come;
// otherwise it schedules p's dispatch at that time.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	if op := p.then; op != nil {
		p.then = nil
		if !p.killed {
			if t := op(); t > p.eng.now {
				p.eng.At(t, p.dispatchFn)
				return
			}
		}
	}
	p.parked = false
	p.eng.next = p
}

// yield gives up control at a blocking point and returns when p is
// dispatched again. p's goroutine runs the event loop itself: if p's own
// dispatch is the next to run, p continues without a goroutine switch;
// otherwise it passes control on and blocks until resumed.
func (p *Proc) yield() {
	if q := p.eng.advance(); q != p {
		p.eng.pass(q)
		<-p.resume //simlint:ignore nondeterminism direct handoff: blocks until the next dispatch of this process
	}
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

// WaitThen blocks the process until absolute simulated time t, runs op at
// t, and blocks it further until the time op returns. It behaves exactly
// as WaitUntil(t) followed by WaitUntil(op()) — the same events with the
// same sequence numbers — except that op runs as part of p's dispatch
// event at t, on whichever goroutine holds control, so p is not resumed in
// between. A process killed before t unwinds at t without running op. For
// t not after now, op runs at once on p's own goroutine.
func (p *Proc) WaitThen(t int64, op func() int64) {
	if t <= p.eng.now {
		p.checkKilled()
		p.WaitUntil(op())
		return
	}
	p.then = op
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
// to call from any simulation context (an event callback or another
// process).
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
