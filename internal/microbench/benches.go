package microbench

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
	"slipstream/internal/sim"
)

// Benchmark sinks. Results accumulate here so the compiler cannot discard
// the measured work.
var (
	sinkInt  int
	sinkTime int64
)

// All returns the registered hot-path benchmarks in report order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "sim/queue/calendar/hold", Fn: benchQueueHold},
		{Name: "sim/engine/step", Fn: benchEngineStep},
		{Name: "sim/proc/handoff", Fn: benchProcHandoff},
		{Name: "memsys/dir/lookup", Fn: benchDirLookup},
		{Name: "memsys/dir/sharer-scan", Fn: benchSharerScan},
		{Name: "memsys/l1/read-hit", Fn: benchL1ReadHit},
		{Name: "memsys/l2/read-hit", Fn: benchL2ReadHit},
		{Name: "memsys/dir/write-pingpong", Fn: benchDirWritePingPong},
		{Name: "memsys/system/setup", Fn: benchSystemSetup},
		{Name: "obs/emit-access", Fn: benchObsEmitAccess},
		{Name: "wire/result/decode", Fn: benchWireDecode},
		{Name: "wire/result/encode", Fn: benchWireEncode},
		{Name: "wire/request/decode", Fn: benchWireRequestDecode},
	}
}

// holdPending is the steady-state event population of the queue benchmark:
// large enough to exercise the calendar's bucket structure, and well above
// a real run's typical queue depth. Sampled at every Engine.At of
// paper-size runs on 8 CMPs, the mean depth was 7.0–8.0 events in single
// mode (max 8) and 13.2–17.0 in slipstream mode with TL+SI (max 509, in
// FFT). Binary and 4-ary heaps matched the calendar queue at depth 8 but
// were slower from depth 32 up, so the calendar queue stays (DESIGN §13).
const holdPending = 256

// benchQueueHold is the classic "hold" queue benchmark through the engine
// API: a fixed population of self-rescheduling events, so every Step is one
// pop plus one push at a pseudo-random future time.
func benchQueueHold(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	rng := uint64(1)
	var fn func()
	fn = func() {
		// Deterministic LCG; delays 1..64 cycles spread events across
		// calendar days the way simulator wakeups do.
		rng = rng*6364136223846793005 + 1442695040888963407
		eng.After(int64(rng>>58)+1, fn)
	}
	for i := 0; i < holdPending; i++ {
		eng.After(int64(i%64)+1, fn)
	}
	for i := 0; i < 4*holdPending; i++ { // warm to steady state
		eng.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// benchEngineStep measures the engine's bare dispatch loop — pop, clock
// advance, monitor nil-check, callback — with a single self-rescheduling
// event, the minimal inner-loop iteration. Steady state must be
// zero-alloc (asserted by TestEngineStepZeroAlloc and the committed
// report).
func benchEngineStep(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	var fn func()
	fn = func() { eng.After(1, fn) }
	eng.After(1, fn)
	for i := 0; i < 64; i++ { // warm the calendar's bucket storage
		eng.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// pingPong starts two processes that alternate Delay(1) until the clock
// reaches *stop, and runs the engine through the warm-up. Both wake every
// cycle and each wake is the other process's turn, so every event is a
// dispatch that switches processes.
func pingPong(stop *int64) *sim.Engine {
	eng := sim.NewEngine()
	body := func(p *sim.Proc) {
		for eng.Now() < *stop {
			p.Delay(1)
		}
	}
	eng.Go("ping", body)
	eng.Go("pong", body)
	eng.RunUntil(64) // warm the calendar's bucket storage
	return eng
}

// benchProcHandoff measures one process switch: two processes alternating
// Delay(1) under Engine.Run, so each op is a dispatch that hands control
// from one process coroutine to the other. Steady state must be zero-alloc
// (asserted by TestProcHandoffZeroAlloc).
func benchProcHandoff(b *testing.B) {
	b.ReportAllocs()
	stop := int64(math.MaxInt64)
	eng := pingPong(&stop)
	b.ResetTimer()
	stop = eng.Now() + int64(b.N+1)/2 // two switches per simulated cycle
	eng.Run()
	sinkTime += eng.Now()
}

// benchDirLookup measures home-directory entry lookup over a populated
// directory, the first step of every L2 miss: 4096 lines of 64 bytes, all
// homed at the one node.
func benchDirLookup(b *testing.B) {
	b.ReportAllocs()
	const lines = 4096
	d := memsys.NewDirectory(0, 6, 1)
	for i := 0; i < lines; i++ {
		e := d.Entry(memsys.Addr(i * 64))
		e.State = memsys.DirShared
		e.AddSharer(i % 8)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		e := d.Peek(memsys.Addr((i & (lines - 1)) * 64))
		n += int(e.State)
	}
	sinkInt += n
}

// benchSharerScan measures sharer-set iteration, the inner loop of
// invalidation fan-out and write-back collection.
func benchSharerScan(b *testing.B) {
	b.ReportAllocs()
	masks := [4]uint64{0x1, 0x8421, 0xffff, 0xfedcba9876543210}
	var e memsys.DirEntry
	n := 0
	visit := func(node int) { n += node }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sharers = masks[i&3]
		e.ForEachSharer(visit)
	}
	sinkInt += n
}

// benchL1ReadHit measures the private-hit fast path: one cache lookup, LRU
// touch, and latency add, with no bus attached.
func benchL1ReadHit(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		b.Fatal(err)
	}
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	now := s.Access(req, 0) // fill the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = s.Access(req, now)
	}
	sinkTime += now
}

// benchL2ReadHit measures an L1 miss satisfied by the node's shared L2: the
// L2 port reservation and hit latency path. The working set (256 lines)
// overflows a shrunken L1 but sits entirely in L2.
func benchL2ReadHit(b *testing.B) {
	b.ReportAllocs()
	p := memsys.DefaultParams(1)
	p.L1Size = 4 << 10 // 64 lines: every wrapped revisit misses L1
	s, err := memsys.NewSystem(sim.NewEngine(), p)
	if err != nil {
		b.Fatal(err)
	}
	const lines = 256
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read}
	var now int64
	for i := 0; i < lines; i++ { // fill L2
		req.Addr = memsys.Addr(i * 64)
		now = s.Access(req, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Addr = memsys.Addr((i % lines) * 64)
		now = s.Access(req, now)
	}
	sinkTime += now
}

// benchDirWritePingPong measures a full directory transaction per
// iteration: two nodes alternately writing one line, so every access is an
// L2 miss, a home-directory transaction, and an invalidation of the other
// node's copy.
func benchDirWritePingPong(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(2))
	if err != nil {
		b.Fatal(err)
	}
	cpus := [2]*memsys.CPU{s.CPUByID(0), s.CPUByID(2)} // one per node
	req := memsys.Req{Kind: memsys.Write, Addr: 0x80}
	var now int64
	for i := 0; i < 2; i++ { // establish the ping-pong
		req.CPU = cpus[i&1]
		now = s.Access(req, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.CPU = cpus[i&1]
		now = s.Access(req, now)
	}
	sinkTime += now
}

// setupSystem builds a Table 1 machine of 8 CMPs, creates a few directory
// entries at every home, fills the same lines through Victim into every
// L1 and L2, finalizes the machine as a classifying (slipstream) run, and
// releases it, as core.Run does around every run. The fills mark one set
// per line in every cache, so NewSystem's Reset and Finalize's walk have
// sets to clear and to visit, as after a small run.
func setupSystem() {
	p := memsys.DefaultParams(8)
	s, err := memsys.NewSystem(sim.NewEngine(), p)
	if err != nil {
		panic(err)
	}
	s.Classify = true
	for i := 0; i < 4*p.Nodes; i++ {
		line := memsys.Addr(i * p.LineSize)
		s.Home(line).Dir.Entry(line).AddSharer(i % p.Nodes)
		for _, n := range s.Nodes {
			fillLine(n.L2, line)
			for _, cpu := range n.CPUs {
				fillLine(cpu.L1, line)
			}
		}
	}
	s.Finalize()
	s.Release()
}

// fillLine installs line in c as a shared copy, as a fill does.
func fillLine(c *memsys.Cache, line memsys.Addr) {
	l := c.Victim(line)
	l.Addr, l.State = line, memsys.Shared
	c.Touch(l)
}

// benchSystemSetup measures what a run spends on its memory system outside
// simulation: building every node's L1s, L2, and directory, which resets
// the sets the previous op filled, the end-of-run Finalize, which walks
// the filled L2 sets, and the Release that hands the cache frames and
// directory pages to the next run. With the free lists warm, an op
// allocates the node structures but no cache frames or directory pages
// (asserted by TestSystemSetupReusesFrames).
func benchSystemSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupSystem()
	}
}

// nopObserver subscribes to the bus and discards events, isolating
// emission cost from observer work.
type nopObserver struct{}

func (nopObserver) Event(*obs.Event) {}

// benchObsEmitAccess measures the observed-access emission fast path: the
// same L1 read hit as memsys/l1/read-hit, plus bus emission of the
// start and classified completion events. The delta between the two
// benchmarks is the cost of observation; steady state must be zero-alloc
// (scratch-event reuse, asserted by TestObsEmitZeroAlloc).
func benchObsEmitAccess(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		b.Fatal(err)
	}
	s.Bus = obs.NewBus(nopObserver{})
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	now := s.Access(req, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = s.Access(req, now)
	}
	sinkTime += now
}

// wireSpec is the spec of the wire benchmarks: a tiny OCEAN run on 4
// CMPs in slipstream mode with TL+SI, normalized as a served hot spec is.
var wireSpec = runspec.RunSpec{
	Kernel: "OCEAN", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 4,
	TransparentLoads: true, SelfInvalidate: true,
}.Normalize()

// wireAnswer returns the result the wire benchmarks encode and its
// one-result answer to POST /v1/run, which they decode: wireSpec's run,
// simulated once per process, whose 1.2 KB of JSON is the size of a
// served answer.
var wireAnswer = sync.OnceValues(func() (*core.Result, []byte) {
	res, err := wireSpec.Run()
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(api.RunResponse{Results: []*core.Result{res}, Cached: []bool{true}})
	if err != nil {
		panic(err)
	}
	return res, body
})

// benchWireDecode measures all the JSON work a hot hit costs its client:
// one api.DecodeRunResponse of the answer.
func benchWireDecode(b *testing.B) {
	b.ReportAllocs()
	_, body := wireAnswer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := api.DecodeRunResponse(body)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(resp.Results)
	}
}

// benchWireRequestDecode measures the JSON work a hot hit costs the
// gateway: one api.DecodeRunRequest of a one-spec batch of wireSpec,
// about 430 bytes, the body a served hot request carries.
func benchWireRequestDecode(b *testing.B) {
	b.ReportAllocs()
	body, err := json.Marshal(api.RunRequest{Specs: []runspec.RunSpec{wireSpec}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := api.DecodeRunRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(req.Specs)
	}
}

// benchWireEncode measures encoding the result, as a daemon does once per
// simulated or store-loaded answer.
func benchWireEncode(b *testing.B) {
	b.ReportAllocs()
	res, _ := wireAnswer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(enc)
	}
}
