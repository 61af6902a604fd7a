// Package obs is the simulator's unified observation layer: a typed,
// deterministic event stream covering task lifecycle, memory accesses with
// classification and latency, coherence-line transitions, synchronization
// waits, and end-of-run resource occupancy, delivered through a
// nil-checkable fan-out Bus.
//
// Every instrumentation consumer — the runtime invariant auditor, the
// Chrome trace-event exporter, the metrics registry, and the A-over-R
// session lead series (Leads) — is an Observer subscribed to one Bus.
// Emission sites guard with a single pointer test (`if bus != nil`), so a
// run with nothing attached pays one branch per event site and constructs
// no Event values.
//
// Determinism rules:
//
//   - Events are delivered synchronously, in simulation order, by the
//     process or caller holding the engine's control. Because every
//     simulation runs one of them at a time and is a pure function of
//     its RunSpec, the event stream is too: equal specs produce
//     byte-identical streams regardless of how many runs execute in
//     parallel around them.
//   - Event.Time is the emitting task's local clock, which may run ahead of
//     the engine clock on private L1 hits (bounded clock-skew batching), so
//     times are not globally monotone across tasks. Exporters needing a
//     global time order sort stably by time at write-out; subscribers that
//     inspect live simulation state (the auditor) rely on the synchronous,
//     unsorted delivery instead.
//   - Observers must not mutate simulation state and must not retain the
//     *Event past the call (emitters may reuse the value).
package obs

import "slipstream/internal/stats"

// Kind tags an observation event.
type Kind uint8

// Event kinds.
const (
	// EvTaskStart marks a task incarnation starting (Task, CPU, Role;
	// Note is the role label, Flags may carry FlagRefork).
	EvTaskStart Kind = iota
	// EvTaskEnd marks a task incarnation finishing naturally (Dur is its
	// measured execution time, BD its breakdown, Note the role label).
	EvTaskEnd
	// EvAccessStart marks a memory access issuing (Time is the issue
	// time), before any state changes.
	EvAccessStart
	// EvAccess marks a memory access completing (Time is the completion
	// time, Dur the total latency, Level where it was satisfied).
	EvAccess
	// EvLine marks a coherence-state change of line Addr (directory
	// transaction, eviction, transparent-copy discard, self-invalidation,
	// L2-to-L1 push). Dir and Sharers carry the directory entry's state.
	EvLine
	// EvSession marks a task entering a session boundary (Note:
	// "barrier-entry", "event-entry", or "a-boundary").
	EvSession
	// EvBarrier records a completed barrier or event wait (Dur = wait;
	// Note is "" for barriers, "event" for event waits).
	EvBarrier
	// EvLock records a completed lock acquisition (Addr = lock id,
	// Dur = wait cycles).
	EvLock
	// EvToken records a completed A-R token consume (Dur = wait cycles,
	// possibly zero).
	EvToken
	// EvPark marks a task parking on a synchronization object (Note names
	// it: "barrier", "lock", "event", "once").
	EvPark
	// EvWake marks a parked task resuming (Dur = parked cycles, Note as
	// for EvPark).
	EvWake
	// EvRecovery marks an A-stream kill-and-refork.
	EvRecovery
	// EvPolicySwitch marks an adaptive A-R policy change (Note = new
	// policy).
	EvPolicySwitch
	// EvStep reports one engine event executed: the clock moved from
	// Count (previous time) to Time.
	EvStep
	// EvResource reports one resource's end-of-run occupancy (Note names
	// it, Dur = busy cycles, Count = acquisitions).
	EvResource
	// EvRunEnd marks the end of the run, after memsys finalization
	// (Dur = run cycles; Flags may carry FlagSlipstream).
	EvRunEnd
	numKinds
)

// Kinds lists every event kind in declaration order, for deterministic
// iteration over per-kind data.
var Kinds = []Kind{
	EvTaskStart, EvTaskEnd, EvAccessStart, EvAccess, EvLine, EvSession,
	EvBarrier, EvLock, EvToken, EvPark, EvWake, EvRecovery, EvPolicySwitch,
	EvStep, EvResource, EvRunEnd,
}

var kindNames = [numKinds]string{
	"task-start", "task-end", "access-start", "access", "line", "session",
	"barrier", "lock", "token", "park", "wake", "recovery", "policy-switch",
	"step", "resource", "run-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Op mirrors memsys.AccessKind by ordinal (asserted by a memsys test).
type Op uint8

// Memory operations.
const (
	OpRead Op = iota
	OpWrite
	OpPrefetchExcl
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpPrefetchExcl:
		return "prefetch-excl"
	}
	return "?"
}

// Role mirrors memsys.Role by ordinal (asserted by a memsys test).
type Role uint8

// Stream roles.
const (
	RoleNone Role = iota
	RoleR
	RoleA
)

func (r Role) String() string {
	switch r {
	case RoleR:
		return "R"
	case RoleA:
		return "A"
	}
	return "-"
}

// Level classifies where an access was satisfied.
type Level uint8

// Access levels.
const (
	LevelNone Level = iota // not classified (EvAccessStart)
	LevelL1
	LevelL2
	LevelDirLocal
	LevelDirRemote
	numLevels
)

var levelNames = [numLevels]string{"none", "l1", "l2", "dir-local", "dir-remote"}

func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return "?"
}

// DirState mirrors memsys.DirState by ordinal (asserted by a memsys test).
type DirState uint8

// Directory states.
const (
	DirIdle DirState = iota
	DirShared
	DirExclusive
)

// Flags carries boolean event attributes.
type Flags uint8

// Flag bits.
const (
	// FlagTransparent marks a transparent (non-coherent) access.
	FlagTransparent Flags = 1 << iota
	// FlagInCS marks an access issued inside a critical section.
	FlagInCS
	// FlagRefork marks a task incarnation spawned by recovery.
	FlagRefork
	// FlagSlipstream marks a slipstream-mode run (EvRunEnd).
	FlagSlipstream
)

// Event is one observation record. It is a flat value type: which fields
// are meaningful depends on Kind (see the kind constants). Task and CPU are
// -1 when the event is not attributed to a task or processor.
type Event struct {
	Kind    Kind
	Time    int64 // completion/occurrence time, task-local clock
	Dur     int64 // latency or wait, where applicable
	Count   int64 // generic count: EvStep previous time, EvResource uses
	Task    int   // logical task id, or -1
	CPU     int   // global processor id, or -1
	Session int   // emitting task's session counter
	Role    Role  // issuing stream
	Op      Op    // memory operation (access events)
	Level   Level // access classification (EvAccess)
	Dir     DirState
	Addr    uint64 // address (accesses), line address (EvLine), lock id
	Sharers uint64 // directory sharer mask (EvLine)
	Flags   Flags
	Note    string
	BD      stats.Breakdown // task breakdown (EvTaskEnd)
}

// Observer consumes observation events. Implementations must not mutate
// simulation state and must not retain e past the call.
type Observer interface {
	Event(e *Event)
}

// Bus fans events out to its observers, in attachment order. A nil *Bus is
// the "nothing attached" state: emission sites test the pointer and skip
// event construction entirely, so unobserved runs pay one branch per site.
type Bus struct {
	obs []Observer
}

// NewBus returns a bus with the given observers attached, or nil if none
// are non-nil (so callers can hand the result straight to a nil-checked
// emission path).
func NewBus(observers ...Observer) *Bus {
	var b *Bus
	for _, o := range observers {
		b = b.Attach(o)
	}
	return b
}

// Attach adds an observer and returns the bus, allocating one if b is nil.
// Attaching nil is a no-op.
func (b *Bus) Attach(o Observer) *Bus {
	if o == nil {
		return b
	}
	if b == nil {
		b = &Bus{}
	}
	b.obs = append(b.obs, o)
	return b
}

// Emit delivers e to every observer, synchronously and in attachment
// order. Safe on a nil bus (drops the event).
//
//simlint:hotpath observation emission: runs once per event on observed runs and must stay allocation-free
func (b *Bus) Emit(e *Event) {
	if b == nil {
		return
	}
	for _, o := range b.obs {
		o.Event(e)
	}
}

// ClockMonitor forwards engine clock steps to a bus as EvStep events. It
// structurally satisfies sim.Monitor, so the engine's monitor hook becomes
// a thin adapter over the bus without this package importing sim.
type ClockMonitor struct {
	Bus *Bus

	ev Event // reused per step; observers must not retain it
}

// Step implements the sim.Monitor contract: one engine event ran, moving
// the clock from prev to now.
func (m *ClockMonitor) Step(prev, now int64) {
	m.ev = Event{Kind: EvStep, Time: now, Count: prev, Task: -1, CPU: -1}
	m.Bus.Emit(&m.ev)
}
