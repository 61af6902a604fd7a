// Package runspec defines RunSpec — the declarative description of one
// simulation run — and a bounded-parallel Executor for sets of specs.
// Running a spec checks the kernel's numerics: a verification failure is
// an error, never a result.
//
// RunSpec is the plan/execute boundary of the experiment harness: figures
// declare the specs their data requires, a scheduler deduplicates the
// union and executes it on a worker pool, and persistent caches key
// stored results by a spec's content. The struct is comparable (usable as
// a map key) and JSON round-trippable (modes, policies, and sizes
// serialize as their String names).
package runspec

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/kernels/synth"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
)

// RunSpec fully determines one simulation: which benchmark at which size,
// under which execution mode and machine. Two normalized specs are equal
// exactly when they describe the same run, so a spec is both a memo key
// and, serialized, a persistent cache key.
type RunSpec struct {
	// Kernel is a benchmark name from kernels.Names.
	Kernel string `json:"kernel"`
	// Size is the benchmark size preset.
	Size kernels.Size `json:"size"`
	// Mode is the execution mode.
	Mode core.Mode `json:"mode"`
	// ARSync is the A-R synchronization policy (slipstream mode only).
	ARSync core.ARSync `json:"arsync"`
	// CMPs is the machine size in CMP nodes (0 normalizes to 1).
	CMPs int `json:"cmps"`

	// Params carries the knob settings of a parameterized kernel (today:
	// SYNTH) in kernels.Params canonical form. Empty for every fixed
	// kernel — and omitted from JSON, so specs that predate the field
	// keep their serialized form and cache keys bit-for-bit.
	Params kernels.Params `json:"params,omitempty"`

	// TransparentLoads, SelfInvalidate, AdaptiveARSync, and ForwardQueue
	// select the slipstream-only option of the same Options field.
	TransparentLoads bool `json:"transparent_loads,omitempty"`
	SelfInvalidate   bool `json:"self_invalidate,omitempty"`
	AdaptiveARSync   bool `json:"adaptive_arsync,omitempty"`
	ForwardQueue     bool `json:"forward_queue,omitempty"`

	// Machine overrides the memory-system parameters. The zero value
	// normalizes to memsys.DefaultParams(CMPs), so default-machine specs
	// compare equal whether or not the caller filled it in.
	Machine memsys.Params `json:"machine"`
}

// Normalize returns the spec with defaults resolved: CMPs at least 1 (and
// exactly 1 in sequential mode), Machine filled from DefaultParams, and
// Params in canonical (sorted k=v) form. Lookup keys and cache hashes
// must always be built from normalized specs.
func (sp RunSpec) Normalize() RunSpec {
	if p, err := sp.Params.Canonical(); err == nil {
		sp.Params = p
	} // a malformed Params is left as-is for Validate to report
	if sp.CMPs < 1 {
		sp.CMPs = 1
	}
	if sp.Mode == core.ModeSequential {
		sp.CMPs = 1
	}
	if sp.Machine.Nodes == 0 {
		sp.Machine = memsys.DefaultParams(sp.CMPs)
	}
	sp.Machine.Nodes = sp.CMPs
	return sp
}

// Options converts the spec to core run options.
func (sp RunSpec) Options() core.Options {
	return core.Options{
		CMPs:             sp.CMPs,
		Mode:             sp.Mode,
		ARSync:           sp.ARSync,
		AdaptiveARSync:   sp.AdaptiveARSync,
		TransparentLoads: sp.TransparentLoads,
		SelfInvalidate:   sp.SelfInvalidate,
		ForwardQueue:     sp.ForwardQueue,
		Machine:          sp.Machine,
	}
}

// MaxSynthWords bounds a SYNTH spec's working set, its task count times
// its ws words per task, as memsys.Params.Validate bounds the machine.
// SYNTH double-buffers the working set and its Verify replays both
// buffers, so a spec at the bound sets up 64 MiB of simulated memory and
// verifies with 64 MiB more. The largest preset spec, 128 tasks × 2048
// words, needs 2^18.
const MaxSynthWords = 1 << 22

// Validate reports whether the spec names a known benchmark, carries
// well-formed parameters that benchmark accepts, resolves to valid run
// options, and, for SYNTH, stays within MaxSynthWords.
func (sp RunSpec) Validate() error {
	k, err := kernels.NewParams(sp.Kernel, sp.Size, sp.Params)
	if err != nil {
		return err
	}
	sp = sp.Normalize()
	if err := sp.Options().Validate(); err != nil {
		return err
	}
	if s, ok := k.(*synth.Kernel); ok {
		tasks, ws := sp.Mode.Tasks(sp.CMPs), s.Config().WS
		if tasks*ws > MaxSynthWords {
			return fmt.Errorf("runspec: SYNTH working set of %d tasks × ws %d = %d words exceeds %d",
				tasks, ws, tasks*ws, MaxSynthWords)
		}
	}
	return nil
}

// Run executes the spec's simulation and returns its result. Unlike
// core.Run, which reports it in Result.VerifyErr, a numeric verification
// failure is an error ("<spec>: verification: …"), as is a failed
// simulation; either way the result is nil.
func (sp RunSpec) Run() (*core.Result, error) { return sp.RunObserved(false) }

// RunObserved is Run with the runtime invariant auditor
// (core.Options.Audit) optionally enabled and any number of
// observation-bus subscribers attached (core.Options.Observers).
// Auditing and observation never change the simulated result, so audited
// and observed runs share cache keys with plain ones; that is why both
// are run arguments and not part of the spec.
func (sp RunSpec) RunObserved(audit bool, observers ...obs.Observer) (*core.Result, error) {
	sp = sp.Normalize()
	k, err := kernels.NewParams(sp.Kernel, sp.Size, sp.Params)
	if err != nil {
		return nil, err
	}
	opts := sp.Options()
	opts.Audit = audit
	opts.Observers = observers
	res, err := core.Run(opts, k)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", sp, err)
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("%v: verification: %w", sp, res.VerifyErr)
	}
	return res, nil
}

func (sp RunSpec) String() string {
	s := sp.Kernel
	if sp.Params != "" {
		s += ":" + string(sp.Params)
	}
	s += fmt.Sprintf("/%s %v", sp.Size, sp.Mode)
	if sp.Mode == core.ModeSlipstream {
		s += "/" + sp.ARSync.String()
	}
	s += fmt.Sprintf(" @%d", sp.CMPs)
	for _, f := range []struct {
		on  bool
		tag string
	}{
		{sp.TransparentLoads, "tl"},
		{sp.SelfInvalidate, "si"},
		{sp.AdaptiveARSync, "adaptive"},
		{sp.ForwardQueue, "fq"},
	} {
		if f.on {
			s += " " + f.tag
		}
	}
	return s
}
