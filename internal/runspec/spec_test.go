package runspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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

// TestValidateBoundsMachine checks that admission refuses a machine whose
// caches or times have no sane bound: at the wire, Validate is all that
// stands between a spec and NewCache's allocation.
func TestValidateBoundsMachine(t *testing.T) {
	for _, cmps := range []int{1, 64} {
		sp := sorSpec(cmps)
		sp.Machine = memsys.DefaultParams(cmps)
		if err := sp.Validate(); err != nil {
			t.Errorf("default machine at %d nodes: %v", cmps, err)
		}
	}
	for _, tc := range []struct {
		name   string
		cmps   int
		mutate func(*memsys.Params)
	}{
		{"L2Size 1<<40", 64, func(p *memsys.Params) { p.L2Size = 1 << 40 }},
		{"L1Size 1<<36", 2, func(p *memsys.Params) { p.L1Size = 1 << 36 }},
		{"LineSize 1<<30", 2, func(p *memsys.Params) {
			// Caches with room for one set of such lines.
			p.LineSize, p.L1Size, p.L2Size = 1<<30, 1<<31, 1<<32
		}},
		{"NetTime 1<<62", 2, func(p *memsys.Params) { p.NetTime = 1 << 62 }},
	} {
		sp := sorSpec(tc.cmps)
		sp.Machine = memsys.DefaultParams(tc.cmps)
		tc.mutate(&sp.Machine)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s on %d nodes validated", tc.name, tc.cmps)
		}
	}
}

// synthSpec returns a tiny SYNTH spec of the given mode and CMP count
// whose tasks own ws words each.
func synthSpec(mode core.Mode, cmps, ws int) RunSpec {
	return RunSpec{Kernel: "SYNTH", Size: kernels.Tiny, Mode: mode, CMPs: cmps,
		Params: kernels.Params(fmt.Sprintf("ws=%d", ws))}
}

// TestValidateBoundsSynthImage checks that admission refuses a SYNTH spec
// whose tasks × ws exceeds MaxSynthWords, counting tasks by mode, and
// accepts one at the bound.
func TestValidateBoundsSynthImage(t *testing.T) {
	for _, tc := range []struct {
		mode    core.Mode
		cmps    int
		ws      int
		refused bool
	}{
		{core.ModeSequential, 64, 1 << 20, false}, // one task
		{core.ModeSingle, 4, 1 << 20, false},      // at the bound
		{core.ModeSingle, 5, 838861, true},        // 5 × 838861 = 2^22 + 1
		{core.ModeSlipstream, 64, 1 << 16, false}, // a pair's streams share their task
		{core.ModeSlipstream, 64, 1<<16 + 1, true},
		{core.ModeDouble, 64, 1 << 15, false}, // 128 tasks
		{core.ModeDouble, 64, 1<<15 + 1, true},
	} {
		sp := synthSpec(tc.mode, tc.cmps, tc.ws)
		err := sp.Validate()
		if tc.refused && (err == nil || !strings.Contains(err.Error(), "exceeds 4194304")) {
			t.Errorf("%v: err = %v, want the working-set bound", sp, err)
		}
		if !tc.refused && err != nil {
			t.Errorf("%v: %v", sp, err)
		}
	}
}

// TestOptionsAreSpecFields checks that every exported core.Options field
// is either a RunSpec field of the same name and type, or one of the two
// that never move a result (Observers and Audit). So a result is a
// function of its spec: no run option can vary outside the spec, and so
// outside its cache key.
func TestOptionsAreSpecFields(t *testing.T) {
	observeOnly := map[string]bool{"Observers": true, "Audit": true}
	spec := reflect.TypeOf(RunSpec{})
	opts := reflect.TypeOf(core.Options{})
	for i := 0; i < opts.NumField(); i++ {
		f := opts.Field(i)
		if !f.IsExported() || observeOnly[f.Name] {
			continue
		}
		sf, ok := spec.FieldByName(f.Name)
		if !ok {
			t.Errorf("core.Options.%s has no RunSpec field", f.Name)
		} else if sf.Type != f.Type {
			t.Errorf("core.Options.%s is %v, RunSpec.%s is %v", f.Name, f.Type, sf.Name, sf.Type)
		}
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
