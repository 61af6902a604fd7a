package core

import (
	"reflect"
	"testing"

	"slipstream/internal/obs"
)

// TestObserversDoNotPerturbResults pins the central contract of the
// observation bus: attaching observers must not change simulated timing or
// any reported statistic.
func TestObserversDoNotPerturbResults(t *testing.T) {
	run := func(observers ...obs.Observer) *Result {
		k := &stencilKernel{n: 1024, iters: 4}
		res, err := Run(Options{
			Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenLocal,
			Observers: observers,
		}, k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run()
	observed := run(&obs.Metrics{}, &obs.ChromeTrace{}, &obs.Leads{})
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("observers perturbed the result:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestTracingDoesNotPerturbTiming checks the same contract on a different
// kernel and A-R policy: a gather run under G0 takes the same number of
// cycles whether or not the lead tracker is attached.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	run := func(observers ...obs.Observer) int64 {
		k := &gatherKernel{n: 1024, iters: 3}
		res, err := Run(Options{
			Mode: ModeSlipstream, CMPs: 4, ARSync: ZeroTokenGlobal,
			Observers: observers,
		}, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	plain := run()
	traced := run(&obs.Leads{})
	if plain != traced {
		t.Fatalf("tracing changed the simulation: %d vs %d cycles", plain, traced)
	}
}

// TestTraceCapturesSlipstreamRun checks that a slipstream run's sessions,
// barrier waits, remote misses, and A-over-R leads all reach the bus.
func TestTraceCapturesSlipstreamRun(t *testing.T) {
	m := &obs.Metrics{}
	leads := &obs.Leads{}
	k := &stencilKernel{n: 1024, iters: 4}
	res, err := Run(Options{
		Mode: ModeSlipstream, CMPs: 4, ARSync: ZeroTokenLocal,
		Observers: []obs.Observer{m, leads},
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	// 4 R-streams x 4 sessions plus 4 A-streams x 4 sessions.
	if got := m.Counter("session.count"); got < 16 {
		t.Errorf("session.count = %d, want >= 16", got)
	}
	if h := m.Histogram("wait.barrier"); h == nil || h.Count == 0 {
		t.Error("no barrier waits recorded")
	}
	if got := m.Counter("access.dir-remote"); got == 0 {
		t.Error("no remote-directory accesses recorded")
	}
	if len(leads.Series()) == 0 {
		t.Fatal("no A-over-R leads computable")
	}
}

// TestMetricsObserverCountsMatchResult cross-checks derived metrics against
// the run's own Result counters.
func TestMetricsObserverCountsMatchResult(t *testing.T) {
	m := &obs.Metrics{}
	k := &chronicKernel{rounds: 10}
	res, err := Run(Options{
		Mode: ModeSlipstream, CMPs: 2, ARSync: OneTokenLocal,
		AdaptiveARSync: true, Observers: []obs.Observer{m},
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("recovery.count"); got != int64(res.Recoveries) {
		t.Errorf("recovery.count = %d, result says %d", got, res.Recoveries)
	}
	if got := m.Counter("policy.switch"); got != int64(res.PolicySwitches) {
		t.Errorf("policy.switch = %d, result says %d", got, res.PolicySwitches)
	}
	if got := m.Counter("run.count"); got != 1 {
		t.Errorf("run.count = %d, want 1", got)
	}
	if got := m.Counter("run.cycles"); got != res.Cycles {
		t.Errorf("run.cycles = %d, result says %d", got, res.Cycles)
	}
}
