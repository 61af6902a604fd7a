// Package slipstream is a simulator for slipstream execution mode on
// CMP-based multiprocessors, reproducing Ibrahim, Byrd & Rotenberg,
// "Slipstream Execution Mode for CMP-Based Multiprocessors" (HPCA 2003).
//
// The simulated machine is a distributed-shared-memory multiprocessor
// built from dual-processor CMP nodes with a shared L2 cache per node and
// an invalidate-based fully-mapped directory protocol (Table 1 of the
// paper). Workloads are SPMD kernels written against the Ctx API; they
// run under four execution modes:
//
//   - Sequential: one task on a single node (the speedup baseline).
//   - Single: one task per CMP, second processor idle.
//   - Double: two independent parallel tasks per CMP.
//   - Slipstream: per CMP, a reduced A-stream runs ahead of the full
//     R-stream, prefetching shared data and driving coherence hints
//     (transparent loads, self-invalidation).
//
// The paper's nine benchmarks are available through Kernels and NewKernel;
// custom workloads implement the Kernel interface. See the examples
// directory for runnable walkthroughs and cmd/experiments for the harness
// that regenerates every table and figure of the paper.
package slipstream

import (
	"slipstream/internal/audit"
	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/stats"
)

// Re-exported configuration and result types. These are aliases, so values
// flow freely between the public API and internal packages.
type (
	// Options configures a simulation run.
	Options = core.Options
	// Mode selects the execution mode (Figure 2 of the paper).
	Mode = core.Mode
	// ARSync selects the A-R synchronization policy (Section 3.2).
	ARSync = core.ARSync
	// Result reports a run's timing and memory-system measurements.
	Result = core.Result
	// Ctx is the task context kernels issue simulated work through.
	Ctx = core.Ctx
	// Program is the shared-memory image kernels allocate into.
	Program = core.Program
	// Kernel is an SPMD workload.
	Kernel = core.Kernel
	// F64 is a shared float64 array handle.
	F64 = core.F64
	// I64 is a shared int64 array handle.
	I64 = core.I64
	// Machine holds the memory-system parameters (Table 1).
	Machine = memsys.Params
	// Breakdown is a task execution-time decomposition (Figure 6).
	Breakdown = stats.Breakdown
	// ReqBreakdown classifies shared-data requests (Figure 7).
	ReqBreakdown = stats.ReqBreakdown
	// KernelSize is a benchmark size preset.
	KernelSize = kernels.Size
	// KernelParams is a canonically ordered set of named numeric kernel
	// parameters — the knobs of parameterized workloads such as SYNTH.
	KernelParams = kernels.Params
	// Observer receives the typed observation-event stream of a run when
	// attached through Options.Observers. Implementations must treat events
	// as read-only; see ObsEvent.
	Observer = obs.Observer
	// ObsEvent is one typed observation event (task lifecycle, classified
	// memory access, synchronization wait, directory transition, ...).
	ObsEvent = obs.Event
	// ChromeTrace is an Observer that renders a run as Chrome trace-event
	// JSON (chrome://tracing, Perfetto).
	ChromeTrace = obs.ChromeTrace
	// Metrics is an Observer that aggregates events into named counters
	// and latency histograms with deterministic text/CSV output.
	Metrics = obs.Metrics
	// Leads is an Observer that measures the A-stream's lead over its
	// R-stream at each session boundary; see Lead.
	Leads = obs.Leads
	// Lead is one session's A-over-R arrival lead in cycles (positive
	// means the A-stream arrived first).
	Lead = obs.Lead
	// AuditError is returned by Run when Options.Audit is set and the run
	// violated a simulation invariant; it carries the violations.
	AuditError = core.AuditError
	// AuditViolation is one invariant breach found by the runtime auditor.
	AuditViolation = audit.Violation
	// VerifyError is a kernel's numeric-verification failure, as
	// Result.VerifyErr reports it: its message, unwrapping to the
	// kernel's error.
	VerifyError = core.VerifyError
)

// Execution modes.
const (
	Sequential = core.ModeSequential
	Single     = core.ModeSingle
	Double     = core.ModeDouble
	Slipstream = core.ModeSlipstream
)

// A-R synchronization policies, in the paper's notation.
const (
	L1 = core.OneTokenLocal   // one-token local (loosest)
	L0 = core.ZeroTokenLocal  // zero-token local
	G1 = core.OneTokenGlobal  // one-token global
	G0 = core.ZeroTokenGlobal // zero-token global (tightest)
)

// ARSyncs lists all four A-R policies in the paper's order.
var ARSyncs = core.ARSyncs

// SimVersion identifies the simulation semantics. It participates in
// persistent run-cache keys: results cached under a different version are
// never served.
const SimVersion = core.SimVersion

// Validation errors returned by Options.Validate (and thus Run). Match
// with errors.Is.
var (
	// ErrUnknownMode reports a Mode outside the four execution modes.
	ErrUnknownMode = core.ErrUnknownMode
	// ErrUnknownARSync reports an ARSync outside the four policies.
	ErrUnknownARSync = core.ErrUnknownARSync
	// ErrCMPCount reports a CMP count below 1.
	ErrCMPCount = core.ErrCMPCount
	// ErrSelfInvalidateNeedsTransparentLoads reports SelfInvalidate
	// without TransparentLoads (Section 5.2: the self-invalidation hints
	// ride on the transparent-load mechanism).
	ErrSelfInvalidateNeedsTransparentLoads = core.ErrSelfInvalidateNeedsTL
	// ErrSlipstreamOnly reports a slipstream-only option (ARSync,
	// AdaptiveARSync, TransparentLoads, SelfInvalidate, ForwardQueue) set
	// under another execution mode.
	ErrSlipstreamOnly = core.ErrSlipstreamOnly
)

// Benchmark size presets.
const (
	SizeTiny  = kernels.Tiny
	SizeSmall = kernels.Small
	SizePaper = kernels.Paper
)

// Run simulates kernel under the given options. The returned Result is
// valid whenever err is nil; a numeric verification failure is reported
// in Result.VerifyErr, a *VerifyError that is nil when the run verified.
func Run(opts Options, k Kernel) (*Result, error) {
	return core.Run(opts, k)
}

// DefaultMachine returns the Table 1 machine configuration for n CMP
// nodes.
func DefaultMachine(n int) Machine {
	return memsys.DefaultParams(n)
}

// Kernels lists the paper's nine benchmarks in Table 2 order.
func Kernels() []string {
	return kernels.Names()
}

// AllKernels lists every registered workload: the paper's nine, the
// ported kernels, and the parameterized synthetic generator.
func AllKernels() []string {
	return kernels.AllNames()
}

// DescribeKernels renders the workload catalog — every kernel with a
// one-line description plus the SYNTH parameter schema.
func DescribeKernels() string {
	return kernels.Describe()
}

// NewKernel builds one of the registered benchmarks at a size preset.
func NewKernel(name string, size KernelSize) (Kernel, error) {
	return kernels.New(name, size)
}

// NewKernelParams builds a registered benchmark at a size preset with the
// given parameters. Only parameterized kernels (today: SYNTH) accept a
// non-empty KernelParams.
func NewKernelParams(name string, size KernelSize, p KernelParams) (Kernel, error) {
	return kernels.NewParams(name, size, p)
}

// ParseKernelParams parses the "k1=v1,k2=v2" CLI parameter form into
// canonical KernelParams.
func ParseKernelParams(s string) (KernelParams, error) {
	return kernels.ParseParams(s)
}

// SplitKernelSpec splits the CLI workload syntax "NAME" or "NAME:k=v,k=v"
// into the kernel name and its canonical parameters.
func SplitKernelSpec(s string) (string, KernelParams, error) {
	return kernels.SplitSpec(s)
}

// ParseKernelSize converts "tiny", "small", or "paper".
func ParseKernelSize(s string) (KernelSize, error) {
	return kernels.ParseSize(s)
}

// ParseMode converts an execution-mode name ("sequential", "single",
// "double", "slipstream"; case-insensitive). It is the exact inverse of
// Mode.String.
func ParseMode(s string) (Mode, error) {
	return core.ParseMode(s)
}

// ParseARSync converts an A-R synchronization policy name ("L1", "L0",
// "G1", "G0"; case-insensitive). It is the exact inverse of
// ARSync.String.
func ParseARSync(s string) (ARSync, error) {
	return core.ParseARSync(s)
}
