// Package core implements the paper's contribution: execution modes for
// CMP-based multiprocessors, including slipstream mode. It provides the
// task runtime (SPMD task contexts, barriers, locks, events), the A-R
// synchronization token semaphore with its four policies, A-stream
// reduction (skipped synchronization, skipped or converted shared stores,
// transparent loads), deviation detection with kill-and-refork recovery,
// and self-invalidation processing at synchronization points.
package core

import (
	"errors"
	"fmt"
	"strings"

	"slipstream/internal/memsys"
	"slipstream/internal/obs"
)

// Mode selects how tasks are assigned to the processors of each CMP
// (Figure 2 of the paper).
type Mode int

// Execution modes.
const (
	// ModeSequential runs one task on a single-node machine; it is the
	// baseline for Figure 4's speedup curves.
	ModeSequential Mode = iota
	// ModeSingle runs one task per CMP; the second processor idles.
	ModeSingle
	// ModeDouble runs two independent parallel tasks per CMP.
	ModeDouble
	// ModeSlipstream runs an R-stream (full task) and an A-stream
	// (reduced task) per CMP.
	ModeSlipstream
)

// Tasks returns the number of logical tasks a run in mode m on cmps CMPs
// partitions its work into: one in sequential mode, two per CMP in double
// mode, and one per CMP otherwise (the A- and R-stream of a slipstream
// pair share their task's id).
func (m Mode) Tasks(cmps int) int {
	switch m {
	case ModeSequential:
		return 1
	case ModeDouble:
		return 2 * cmps
	}
	return cmps
}

func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeSingle:
		return "single"
	case ModeDouble:
		return "double"
	case ModeSlipstream:
		return "slipstream"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode is the exact inverse of Mode.String for the four valid modes.
// Matching is case-insensitive; unknown names return ErrUnknownMode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "sequential":
		return ModeSequential, nil
	case "single":
		return ModeSingle, nil
	case "double":
		return ModeDouble, nil
	case "slipstream":
		return ModeSlipstream, nil
	}
	return 0, fmt.Errorf("%w: %q (want sequential, single, double, or slipstream)", ErrUnknownMode, s)
}

// MarshalText encodes the mode as its String form, its JSON form too.
func (m Mode) MarshalText() ([]byte, error) {
	if m < ModeSequential || m > ModeSlipstream {
		return nil, fmt.Errorf("%w: Mode(%d)", ErrUnknownMode, int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a mode from its String form via ParseMode.
func (m *Mode) UnmarshalText(b []byte) error {
	v, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ARSync selects the A-R synchronization policy: the initial token pool and
// whether the R-stream inserts a new token when it enters (local) or exits
// (global) a barrier or event wait (Section 3.2, Figure 3).
type ARSync int

// A-R synchronization policies, using the paper's abbreviations.
const (
	OneTokenLocal   ARSync = iota // L1: loosest
	ZeroTokenLocal                // L0
	OneTokenGlobal                // G1
	ZeroTokenGlobal               // G0: tightest
)

// InitialTokens returns the policy's initial token pool.
func (a ARSync) InitialTokens() int {
	if a == OneTokenLocal || a == OneTokenGlobal {
		return 1
	}
	return 0
}

// Global reports whether the R-stream inserts tokens at synchronization
// exit (global) rather than entry (local).
func (a ARSync) Global() bool {
	return a == OneTokenGlobal || a == ZeroTokenGlobal
}

func (a ARSync) String() string {
	switch a {
	case OneTokenLocal:
		return "L1"
	case ZeroTokenLocal:
		return "L0"
	case OneTokenGlobal:
		return "G1"
	case ZeroTokenGlobal:
		return "G0"
	}
	//simlint:ignore hotpathalloc defensive default for invalid values; the four real policies return constants
	return fmt.Sprintf("ARSync(%d)", int(a))
}

// ParseARSync is the exact inverse of ARSync.String for the four policies.
// Matching is case-insensitive; unknown names return ErrUnknownARSync.
func ParseARSync(s string) (ARSync, error) {
	switch strings.ToUpper(s) {
	case "L1":
		return OneTokenLocal, nil
	case "L0":
		return ZeroTokenLocal, nil
	case "G1":
		return OneTokenGlobal, nil
	case "G0":
		return ZeroTokenGlobal, nil
	}
	return 0, fmt.Errorf("%w: %q (want L1, L0, G1, or G0)", ErrUnknownARSync, s)
}

// MarshalText encodes the policy as its String form, its JSON form too.
func (a ARSync) MarshalText() ([]byte, error) {
	if a < OneTokenLocal || a > ZeroTokenGlobal {
		return nil, fmt.Errorf("%w: ARSync(%d)", ErrUnknownARSync, int(a))
	}
	return []byte(a.String()), nil
}

// UnmarshalText decodes a policy from its String form via ParseARSync.
func (a *ARSync) UnmarshalText(b []byte) error {
	v, err := ParseARSync(string(b))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// ARSyncs lists all four policies in the paper's Figure 5 order.
var ARSyncs = []ARSync{OneTokenLocal, ZeroTokenLocal, OneTokenGlobal, ZeroTokenGlobal}

// Options configures a run.
type Options struct {
	// CMPs is the number of CMP nodes. Sequential mode always uses one.
	CMPs int

	// Mode is the execution mode.
	Mode Mode

	// ARSync is the A-R synchronization policy (slipstream mode only).
	// With AdaptiveARSync set it is only the starting policy.
	ARSync ARSync

	// AdaptiveARSync lets each A-R pair vary its synchronization policy
	// at run time based on its node's request-classification window (the
	// dynamic scheme selection of the paper's Section 6).
	AdaptiveARSync bool

	// TransparentLoads enables Section 4's transparent loads for A-stream
	// reads issued ahead of the R-stream or inside critical sections.
	TransparentLoads bool

	// SelfInvalidate enables self-invalidation driven by future-sharer
	// hints. It requires TransparentLoads.
	SelfInvalidate bool

	// Machine overrides the memory-system parameters. The zero value
	// selects memsys.DefaultParams(CMPs).
	Machine memsys.Params

	// ForwardQueue enables the Section 6 extension: each A-stream pushes
	// the line addresses it fetches into a small per-pair hardware queue,
	// and the R-stream's cache controller drains it with L2-to-L1 pushes,
	// converting the R-stream's L2-hit latency on A-prefetched lines into
	// L1 hits. Slipstream mode only.
	ForwardQueue bool

	// Observers subscribe to the run's observation bus (internal/obs) and
	// receive the full typed event stream: task lifecycle, classified
	// memory accesses, coherence-line changes, synchronization waits, and
	// end-of-run resource occupancy. Observers must not mutate simulation
	// state; with none attached (and no Audit) the run takes the
	// unobserved fast path.
	Observers []obs.Observer

	// Audit enables the runtime invariant auditor (internal/audit): the
	// run is cross-checked for time conservation, coherence, counter
	// identities, and IsL1Hit fidelity, and Run returns an *AuditError if
	// any invariant is violated. Auditing observes only — it never changes
	// simulated results — but slows the run down. The SLIPSIM_AUDIT=1
	// environment variable force-enables it for every run in the process.
	Audit bool

	// skew bounds how far a task's local clock may run ahead of the
	// global clock on private (L1-hit) work before it yields. Zero selects
	// skewQuantum; only this package's tests set it, to compare the
	// approximation with the exact schedule (1).
	skew int64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.CMPs == 0 {
		o.CMPs = 1
	}
	if o.Mode == ModeSequential {
		o.CMPs = 1
	}
	if o.Machine.Nodes == 0 {
		o.Machine = memsys.DefaultParams(o.CMPs)
	}
	o.Machine.Nodes = o.CMPs
	if o.skew == 0 {
		o.skew = skewQuantum
	}
	return o
}

// Typed option errors. Validate (and therefore Run) wraps these, so
// callers can test for a class of failure with errors.Is.
var (
	// ErrUnknownMode reports a Mode outside the four defined modes, or an
	// unparseable mode name.
	ErrUnknownMode = errors.New("unknown execution mode")
	// ErrUnknownARSync reports an ARSync outside the four defined
	// policies, or an unparseable policy name.
	ErrUnknownARSync = errors.New("unknown A-R synchronization policy")
	// ErrCMPCount reports a CMP count below 1.
	ErrCMPCount = errors.New("CMPs must be >= 1")
	// ErrSelfInvalidateNeedsTL reports SelfInvalidate set without
	// TransparentLoads, whose future-sharer hints it depends on.
	ErrSelfInvalidateNeedsTL = errors.New("SelfInvalidate requires TransparentLoads")
	// ErrSlipstreamOnly reports a slipstream-only option (ARSync,
	// AdaptiveARSync, TransparentLoads, SelfInvalidate, ForwardQueue) set
	// under another execution mode.
	ErrSlipstreamOnly = errors.New("option applies only to slipstream mode")
)

// Validate reports option errors. Run calls it after defaulting, so a
// zero CMPs passed to Run is filled in before this check; calling
// Validate directly on raw Options applies the stricter documented
// contract (CMPs >= 1).
func (o Options) Validate() error {
	if o.Mode < ModeSequential || o.Mode > ModeSlipstream {
		return fmt.Errorf("core: %w: Mode(%d)", ErrUnknownMode, int(o.Mode))
	}
	if o.CMPs < 1 {
		return fmt.Errorf("core: %w: got %d", ErrCMPCount, o.CMPs)
	}
	if o.ARSync < OneTokenLocal || o.ARSync > ZeroTokenGlobal {
		return fmt.Errorf("core: %w: ARSync(%d)", ErrUnknownARSync, int(o.ARSync))
	}
	if o.SelfInvalidate && !o.TransparentLoads {
		return fmt.Errorf("core: %w", ErrSelfInvalidateNeedsTL)
	}
	// Check the machine Run will build: a RunSpec's Machine arrives over
	// the wire, and a negative latency in it would panic the engine.
	if err := o.withDefaults().Machine.Validate(); err != nil {
		return err
	}
	if o.Mode != ModeSlipstream {
		switch {
		case o.ARSync != 0:
			return fmt.Errorf("core: %w: ARSync=%v under %v", ErrSlipstreamOnly, o.ARSync, o.Mode)
		case o.AdaptiveARSync:
			return fmt.Errorf("core: %w: AdaptiveARSync under %v", ErrSlipstreamOnly, o.Mode)
		case o.TransparentLoads:
			return fmt.Errorf("core: %w: TransparentLoads under %v", ErrSlipstreamOnly, o.Mode)
		case o.SelfInvalidate:
			return fmt.Errorf("core: %w: SelfInvalidate under %v", ErrSlipstreamOnly, o.Mode)
		case o.ForwardQueue:
			return fmt.Errorf("core: %w: ForwardQueue under %v", ErrSlipstreamOnly, o.Mode)
		}
	}
	return nil
}
