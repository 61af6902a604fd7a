package runspec

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
)

func sorSpec(cmps int) RunSpec {
	return RunSpec{Kernel: "SOR", Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: cmps}
}

func TestNormalizeFillsMachineAndCMPs(t *testing.T) {
	sp := RunSpec{Kernel: "SOR", Mode: core.ModeSequential, CMPs: 8}.Normalize()
	if sp.CMPs != 1 {
		t.Errorf("sequential CMPs = %d, want 1", sp.CMPs)
	}
	if sp.Machine != memsys.DefaultParams(1) {
		t.Errorf("Machine not defaulted: %+v", sp.Machine)
	}
	// Explicit defaults and the zero Machine normalize to the same spec, so
	// they share memo and cache entries.
	a := sorSpec(4).Normalize()
	b := sorSpec(4)
	b.Machine = memsys.DefaultParams(4)
	if a != b.Normalize() {
		t.Error("zero Machine and explicit default Machine normalize differently")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := RunSpec{
		Kernel: "CG", Size: kernels.Small, Mode: core.ModeSlipstream,
		ARSync: core.ZeroTokenGlobal, CMPs: 8,
		TransparentLoads: true, SelfInvalidate: true,
	}.Normalize()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var got RunSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != sp {
		t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", got, sp)
	}
	// The encoding is symbolic, not positional.
	for _, want := range []string{`"slipstream"`, `"G0"`, `"small"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON %s missing %s", b, want)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	if err := (RunSpec{Kernel: "BOGUS", Mode: core.ModeSingle, CMPs: 2}).Validate(); err == nil {
		t.Error("unknown kernel accepted")
	}
	err := RunSpec{Kernel: "SOR", Mode: core.ModeSingle, CMPs: 2, ForwardQueue: true}.Validate()
	if !errors.Is(err, core.ErrSlipstreamOnly) {
		t.Errorf("ForwardQueue under single mode: err = %v, want ErrSlipstreamOnly", err)
	}
}

func TestRunExecutesSpec(t *testing.T) {
	res, err := sorSpec(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil || res.Cycles <= 0 || len(res.Tasks) != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestExecutorDedupsAndOrders(t *testing.T) {
	specs := []RunSpec{sorSpec(2), sorSpec(4), sorSpec(2), sorSpec(4)}
	var ran atomic.Int32
	var order []RunSpec
	ex := &Executor{
		Workers: 4,
		Store:   func(RunSpec, *core.Result) { ran.Add(1) },
		OnDone:  func(sp RunSpec, _ *core.Result, _ bool) { order = append(order, sp) },
	}
	res, err := ex.Execute(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("simulated %d distinct specs, want 2", got)
	}
	if len(res) != 4 || res[0] != res[2] || res[1] != res[3] || res[0] == res[1] {
		t.Errorf("duplicate specs did not share results")
	}
	if len(order) != 2 || order[0] != sorSpec(2).Normalize() || order[1] != sorSpec(4).Normalize() {
		t.Errorf("OnDone order = %v", order)
	}
}

func TestExecutorLookupShortCircuits(t *testing.T) {
	canned := &core.Result{Kernel: "SOR", Cycles: 42}
	var cachedSeen bool
	ex := &Executor{
		Workers: 2,
		Lookup:  func(RunSpec) (*core.Result, bool) { return canned, true },
		Store:   func(RunSpec, *core.Result) { t.Error("Store called despite lookup hit") },
		OnDone:  func(_ RunSpec, _ *core.Result, cached bool) { cachedSeen = cached },
	}
	res, err := ex.Execute(context.Background(), []RunSpec{sorSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != canned || !cachedSeen {
		t.Errorf("lookup hit not used: %+v cached=%v", res[0], cachedSeen)
	}
}

func TestExecutorReportsEarliestError(t *testing.T) {
	bad := RunSpec{Kernel: "NOPE", Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: 2}
	_, err := (&Executor{Workers: 4}).Execute(context.Background(), []RunSpec{sorSpec(2), bad, sorSpec(4)})
	if err == nil {
		t.Fatal("bad spec did not fail Execute")
	}
}

func TestExecutorCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Executor{
		Workers: 2,
		Store:   func(RunSpec, *core.Result) { t.Error("Store called under canceled context") },
	}
	res, err := ex.Execute(ctx, []RunSpec{sorSpec(2), sorSpec(4)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range res {
		if res[i] != nil {
			t.Errorf("spec %d after pre-canceled Execute: result %v, want nil", i, res[i])
		}
	}
}

func TestExecutorNilContextRuns(t *testing.T) {
	res, err := (&Executor{Workers: 1}).Execute(nil, []RunSpec{sorSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Cycles <= 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestExecutorObserveSeesOnlySimulatedSpecs(t *testing.T) {
	canned := &core.Result{Kernel: "SOR", Cycles: 42}
	var observed atomic.Int32
	ex := &Executor{
		Workers: 2,
		Lookup: func(sp RunSpec) (*core.Result, bool) {
			return canned, sp == sorSpec(2).Normalize()
		},
		Observe: func(sp RunSpec) []obs.Observer {
			if sp == sorSpec(2).Normalize() {
				t.Error("Observe called for a Lookup hit")
			}
			observed.Add(1)
			return []obs.Observer{&obs.Metrics{}}
		},
	}
	if _, err := ex.Execute(context.Background(), []RunSpec{sorSpec(2), sorSpec(4)}); err != nil {
		t.Fatal(err)
	}
	if got := observed.Load(); got != 1 {
		t.Errorf("Observe called %d times, want 1 (cache hits skip it)", got)
	}
}
