package memsys

import (
	"testing"

	"slipstream/internal/sim"
)

// newSys builds a small test system: n nodes, tiny caches so eviction tests
// are easy, Table 1 latencies.
func newSys(t *testing.T, n int) (*System, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	p := DefaultParams(n)
	s, err := NewSystem(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func read(s *System, cpu *CPU, a Addr, at int64) int64 {
	return s.Access(Req{CPU: cpu, Kind: Read, Addr: a}, at)
}

func write(s *System, cpu *CPU, a Addr, at int64) int64 {
	return s.Access(Req{CPU: cpu, Kind: Write, Addr: a}, at)
}

// addrHomedAt returns a line-aligned address whose home is the given node.
func addrHomedAt(s *System, node int) Addr {
	ls := Addr(s.P.LineSize)
	for a := Addr(0); ; a += ls {
		if s.Home(a).ID == node {
			return a
		}
	}
}

func TestTable1UnloadedLatencies(t *testing.T) {
	p := DefaultParams(4)
	if got := p.LocalMissLatency(); got != 170 {
		t.Errorf("local miss latency = %d, want 170", got)
	}
	if got := p.RemoteMissLatency(); got != 290 {
		t.Errorf("remote miss latency = %d, want 290", got)
	}
}

func TestLocalMissCost(t *testing.T) {
	s, _ := newSys(t, 4)
	cpu := s.Nodes[0].CPUs[0]
	a := addrHomedAt(s, 0)
	done := read(s, cpu, a, 0)
	// L1 lookup (1) + L2 lookup (10) + unloaded local miss (170).
	want := s.P.L1Hit + s.P.L2Hit + 170
	if done != want {
		t.Errorf("local L2 miss done = %d, want %d", done, want)
	}
}

func TestRemoteMissCost(t *testing.T) {
	s, _ := newSys(t, 4)
	cpu := s.Nodes[0].CPUs[0]
	a := addrHomedAt(s, 2)
	done := read(s, cpu, a, 0)
	want := s.P.L1Hit + s.P.L2Hit + 290
	if done != want {
		t.Errorf("remote L2 miss done = %d, want %d", done, want)
	}
}

func TestL1AndL2HitCosts(t *testing.T) {
	s, _ := newSys(t, 2)
	n := s.Nodes[0]
	a := addrHomedAt(s, 0)
	read(s, n.CPUs[0], a, 0) // miss fills L2 + cpu0's L1

	// Same CPU: L1 hit.
	d := read(s, n.CPUs[0], a, 1000)
	if d != 1000+s.P.L1Hit {
		t.Errorf("L1 hit done = %d, want %d", d, 1000+s.P.L1Hit)
	}
	// Other CPU on the node: misses L1, hits shared L2.
	d = read(s, n.CPUs[1], a, 2000)
	if d != 2000+s.P.L1Hit+s.P.L2Hit {
		t.Errorf("L2 hit done = %d, want %d", d, 2000+s.P.L1Hit+s.P.L2Hit)
	}
	// And now it is in cpu1's L1 too.
	d = read(s, n.CPUs[1], a, 3000)
	if d != 3000+s.P.L1Hit {
		t.Errorf("post-fill L1 hit done = %d, want %d", d, 3000+s.P.L1Hit)
	}
}

func TestReadSharingThenWriteInvalidates(t *testing.T) {
	s, _ := newSys(t, 4)
	a := addrHomedAt(s, 3)
	c0 := s.Nodes[0].CPUs[0]
	c1 := s.Nodes[1].CPUs[0]

	read(s, c0, a, 0)
	read(s, c1, a, 1000)
	e := s.Home(a).Dir.Entry(a.Line(s.P.LineSize))
	if e.State != DirShared || !e.HasSharer(0) || !e.HasSharer(1) {
		t.Fatalf("after two reads: state=%v sharers=%b", e.State, e.Sharers)
	}

	// Node 1 writes: node 0's copy must be invalidated.
	write(s, c1, a, 2000)
	if e.State != DirExclusive || e.Owner != 1 {
		t.Fatalf("after write: state=%v owner=%d", e.State, e.Owner)
	}
	if l := s.Nodes[0].L2.Lookup(a.Line(s.P.LineSize)); l != nil {
		t.Fatalf("node 0 still holds line in state %v", l.State)
	}
	if s.MS.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.MS.Invalidations)
	}

	// Node 0 re-reads: three-hop intervention, owner downgrades.
	read(s, c0, a, 5000)
	if e.State != DirShared || !e.HasSharer(0) || !e.HasSharer(1) {
		t.Fatalf("after re-read: state=%v sharers=%b", e.State, e.Sharers)
	}
	if l := s.Nodes[1].L2.Lookup(a.Line(s.P.LineSize)); l == nil || l.State != Shared {
		t.Fatalf("owner did not downgrade: %+v", l)
	}
	if s.MS.Interventions != 1 {
		t.Fatalf("interventions = %d, want 1", s.MS.Interventions)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	s, _ := newSys(t, 2)
	a := addrHomedAt(s, 0)
	c0 := s.Nodes[0].CPUs[0]
	read(s, c0, a, 0)
	// Write on a shared (sole-sharer) line: upgrade, no data fetch.
	write(s, c0, a, 1000)
	e := s.Home(a).Dir.Entry(a.Line(s.P.LineSize))
	if e.State != DirExclusive || e.Owner != 0 {
		t.Fatalf("after upgrade: state=%v owner=%d", e.State, e.Owner)
	}
	l := s.Nodes[0].L2.Lookup(a.Line(s.P.LineSize))
	if l == nil || l.State != Exclusive {
		t.Fatalf("L2 line not exclusive: %+v", l)
	}
	// Subsequent writes hit in L1.
	d := write(s, c0, a, 2000)
	if d != 2000+s.P.L1Hit {
		t.Errorf("write hit done = %d, want %d", d, 2000+s.P.L1Hit)
	}
}

func TestWriteMissExclusiveTransfer(t *testing.T) {
	s, _ := newSys(t, 4)
	a := addrHomedAt(s, 2)
	c0 := s.Nodes[0].CPUs[0]
	c1 := s.Nodes[1].CPUs[0]
	write(s, c0, a, 0)
	write(s, c1, a, 1000)
	e := s.Home(a).Dir.Entry(a.Line(s.P.LineSize))
	if e.State != DirExclusive || e.Owner != 1 {
		t.Fatalf("ownership transfer failed: state=%v owner=%d", e.State, e.Owner)
	}
	if l := s.Nodes[0].L2.Lookup(a.Line(s.P.LineSize)); l != nil {
		t.Fatalf("old owner still holds line: %+v", l)
	}
	if s.MS.Interventions != 1 {
		t.Fatalf("interventions = %d, want 1", s.MS.Interventions)
	}
}

func TestFillMerging(t *testing.T) {
	s, _ := newSys(t, 2)
	n := s.Nodes[0]
	a := addrHomedAt(s, 1) // remote: long fill
	d0 := read(s, n.CPUs[0], a, 0)
	// CPU 1 asks for the same line while the fill is outstanding.
	d1 := read(s, n.CPUs[1], a, 5)
	if d1 < d0 {
		t.Fatalf("merged request completed (%d) before the fill (%d)", d1, d0)
	}
	if s.MS.MergedFills != 1 {
		t.Fatalf("merged fills = %d, want 1", s.MS.MergedFills)
	}
	if s.MS.L2Misses != 1 {
		t.Fatalf("L2 misses = %d, want 1 (second access must merge)", s.MS.L2Misses)
	}
}

func TestL2PortContention(t *testing.T) {
	s, _ := newSys(t, 2)
	n := s.Nodes[0]
	a := addrHomedAt(s, 0)
	b := a + Addr(s.P.LineSize)
	// Warm both lines into L2 (but only CPU 0's L1).
	read(s, n.CPUs[0], a, 0)
	read(s, n.CPUs[0], b, 1000)
	// Two different CPUs hit the L2 at the same time for different lines:
	// the second is delayed by the port occupancy.
	d1 := read(s, n.CPUs[1], a, 2000)
	d2 := read(s, n.CPUs[1], b, 2000)
	if d2 != d1+s.P.L2Occ {
		t.Errorf("second L2 access done = %d, want %d (port occupancy)", d2, d1+s.P.L2Occ)
	}
}

func TestEvictionWritebackAndRefetch(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams(2)
	p.L2Size = p.LineSize * p.L2Assoc // a single set
	p.L1Size = p.LineSize * p.L1Assoc
	s, err := NewSystem(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Nodes[0].CPUs[0]
	base := addrHomedAt(s, 0)
	// Dirty the first line, then sweep enough lines through the set to
	// evict it. All addresses map to set 0 since there is one set.
	write(s, c, base, 0)
	now := int64(1000)
	for i := 1; i <= p.L2Assoc; i++ {
		read(s, c, base+Addr(i*p.LineSize), now)
		now += 1000
	}
	if l := s.Nodes[0].L2.Lookup(base); l != nil {
		t.Fatalf("line not evicted: %+v", l)
	}
	e := s.Home(base).Dir.Entry(base)
	if e.State != DirIdle {
		t.Fatalf("directory after dirty eviction: %v, want Idle", e.State)
	}
	if s.MS.Writebacks == 0 || s.MS.Evictions == 0 {
		t.Fatalf("writebacks=%d evictions=%d, want >0", s.MS.Writebacks, s.MS.Evictions)
	}
	// Refetch works and gets a coherent copy.
	read(s, c, base, now)
	if e.State != DirShared || !e.HasSharer(0) {
		t.Fatalf("after refetch: state=%v sharers=%b", e.State, e.Sharers)
	}
}

func TestFunctionalMemory(t *testing.T) {
	m := NewMem(64)
	a := m.Alloc(10)
	b := m.Alloc(3)
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("allocations not line aligned: %d %d", a, b)
	}
	if b <= a+9*WordSize {
		t.Fatalf("regions overlap: a=%d b=%d", a, b)
	}
	m.StoreF(a, 3.25)
	m.StoreI(b, -7)
	if got := m.LoadF(a); got != 3.25 {
		t.Errorf("LoadF = %v, want 3.25", got)
	}
	if got := m.LoadI(b); got != -7 {
		t.Errorf("LoadI = %v, want -7", got)
	}
}

func TestHomeInterleaving(t *testing.T) {
	s, _ := newSys(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 64; i++ {
		a := Addr(i * s.P.LineSize)
		counts[s.Home(a).ID]++
	}
	for i, c := range counts {
		if c != 16 {
			t.Errorf("node %d homes %d of 64 lines, want 16", i, c)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.Nodes = 100 },
		func(p *Params) { p.LineSize = 48 },
		func(p *Params) { p.L1Assoc = 0 },
		func(p *Params) { p.L2Size = 0 },
		func(p *Params) { p.SIRate = 0 },
		// A negative latency or occupancy schedules events in the past.
		func(p *Params) { p.L1Hit = -1 },
		func(p *Params) { p.L2Hit = -1 },
		func(p *Params) { p.L2Occ = -1 },
		func(p *Params) { p.BusTime = -1 },
		func(p *Params) { p.PILocalDCTime = -1 },
		func(p *Params) { p.PIRemoteDCTime = -1 },
		func(p *Params) { p.NIRemoteDCTime = -1 },
		func(p *Params) { p.NILocalDCTime = -1 },
		func(p *Params) { p.NetTime = -500 },
		func(p *Params) { p.MemTime = -1 },
		func(p *Params) { p.NIPortOcc = -1 },
		func(p *Params) { p.InvalOcc = -1 },
		// Upper bounds: a spec over one would allocate without limit or
		// overflow simulated time.
		func(p *Params) { p.LineSize = 8192 },
		func(p *Params) { p.L1Size = 1<<30 + 1<<20 },
		func(p *Params) { p.L2Size = 1<<30 + 1<<20 },
		func(p *Params) { p.L2Size = 1 << 30 },        // 4 nodes: 2^26 frames
		func(p *Params) { p.L1Assoc = 1 << 58 },       // overflows L1Assoc*LineSize
		func(p *Params) { p.L2Assoc = 1<<62 + 1<<60 }, // ditto
		func(p *Params) { p.SIRate = 1<<32 + 1 },
		func(p *Params) { p.L2Occ = 1<<32 + 1 },
		func(p *Params) { p.NetTime = 1 << 62 },
		func(p *Params) { p.MemTime = 1<<32 + 1 },
	}
	for i, mutate := range cases {
		p := DefaultParams(4)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params validated", i)
		}
	}
	p := DefaultParams(16)
	if err := p.Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	// Zero is a valid latency and occupancy.
	p.L1Hit, p.L2Hit, p.L2Occ, p.BusTime = 0, 0, 0, 0
	p.PILocalDCTime, p.PIRemoteDCTime, p.NIRemoteDCTime, p.NILocalDCTime = 0, 0, 0, 0
	p.NetTime, p.MemTime, p.NIPortOcc, p.InvalOcc = 0, 0, 0, 0
	if err := p.Validate(); err != nil {
		t.Errorf("zero latencies rejected: %v", err)
	}
	// Each bound is inclusive.
	p = DefaultParams(64)
	p.LineSize, p.L1Size, p.L2Size = 4096, 1<<30, 1<<30
	p.NetTime, p.SIRate = 1<<32, 1<<32
	p.Nodes = 4 // 4 * 3 * 2^30 / 2^12 = 3 * 2^20 frames
	if err := p.Validate(); err != nil {
		t.Errorf("machine at the bounds rejected: %v", err)
	}
	p.Nodes = 64
	if err := p.Validate(); err == nil {
		t.Error("64 nodes of 1 GiB caches validated")
	}
}
