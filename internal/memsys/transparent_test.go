package memsys

import (
	"testing"

	"slipstream/internal/sim"
)

// tread issues an A-stream transparent read.
func tread(s *System, cpu *CPU, a Addr, at int64) int64 {
	return s.Access(Req{CPU: cpu, Kind: Read, Addr: a, Role: RoleA, Transparent: true}, at)
}

func TestTransparentLoadOnExclusiveLine(t *testing.T) {
	s, eng := newSys(t, 4)
	line := addrHomedAt(s, 2)
	producer := s.Nodes[0].CPUs[0]
	consumerA := s.Nodes[1].CPUs[1]

	write(s, producer, line, 0) // node 0 owns exclusively
	done := tread(s, consumerA, line, 1000)

	e := s.Home(line).Dir.Entry(line)
	// Ownership must be untouched; requester is a future sharer only.
	if e.State != DirExclusive || e.Owner != 0 {
		t.Fatalf("transparent load disturbed owner: state=%v owner=%d", e.State, e.Owner)
	}
	if e.HasSharer(1) {
		t.Fatal("transparent requester added to sharer list")
	}
	if !e.HasFuture(1) {
		t.Fatal("transparent requester not recorded as future sharer")
	}
	if s.TL.TransparentIssued != 1 || s.TL.TransparentReply != 1 || s.TL.Upgraded != 0 {
		t.Fatalf("TL stats = %+v", s.TL)
	}
	// The requester's L2 copy is marked transparent.
	l := s.Nodes[1].L2.Lookup(line)
	if l == nil || !l.Transparent {
		t.Fatalf("no transparent L2 copy: %+v", l)
	}
	if done <= 1000 {
		t.Fatal("transparent load took no time")
	}

	// After the hint transit, the owner's line is marked for SI.
	eng.Run()
	ol := s.Nodes[0].L2.Lookup(line)
	if ol == nil || !ol.SIMark {
		t.Fatalf("owner line not SI-marked: %+v", ol)
	}
	if s.SIst.HintsSent != 1 {
		t.Fatalf("hints sent = %d, want 1", s.SIst.HintsSent)
	}
}

func TestTransparentLoadUpgradedOnSharedLine(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	reader := s.Nodes[0].CPUs[0]
	consumerA := s.Nodes[1].CPUs[1]

	read(s, reader, line, 0) // line becomes Shared
	tread(s, consumerA, line, 1000)

	e := s.Home(line).Dir.Entry(line)
	if !e.HasSharer(1) || !e.HasFuture(1) {
		t.Fatalf("upgraded transparent load: sharers=%b future=%b", e.Sharers, e.Future)
	}
	if s.TL.Upgraded != 1 || s.TL.TransparentReply != 0 {
		t.Fatalf("TL stats = %+v", s.TL)
	}
	l := s.Nodes[1].L2.Lookup(line)
	if l == nil || l.Transparent {
		t.Fatalf("upgraded load must leave a coherent copy: %+v", l)
	}
}

func TestTransparentCopyInvisibleToRStream(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	producer := s.Nodes[0].CPUs[0]
	nodeA := s.Nodes[1].CPUs[1] // A-stream processor of node 1
	nodeR := s.Nodes[1].CPUs[0] // R-stream processor of node 1

	write(s, producer, line, 0)
	tread(s, nodeA, line, 1000)

	// A-stream re-reads hit the transparent copy cheaply.
	dA := s.Access(Req{CPU: nodeA, Kind: Read, Addr: line, Role: RoleA}, 5000)
	if dA != 5000+s.P.L1Hit {
		t.Errorf("A re-read done = %d, want L1 hit at %d", dA, 5000+s.P.L1Hit)
	}
	// R-stream read must NOT see the transparent copy: it refetches
	// coherently (three-hop through the exclusive owner).
	dR := s.Access(Req{CPU: nodeR, Kind: Read, Addr: line, Role: RoleR}, 6000)
	if dR < 6000+s.P.RemoteMissLatency() {
		t.Errorf("R read done = %d, too fast for a coherent refetch", dR)
	}
	e := s.Home(line).Dir.Entry(line)
	if e.State != DirShared || !e.HasSharer(1) || !e.HasSharer(0) {
		t.Fatalf("after R refetch: state=%v sharers=%b", e.State, e.Sharers)
	}
	// The R request reaching the directory reset node 1's future bit.
	if e.HasFuture(1) {
		t.Fatal("future-sharer bit not reset by R-stream request")
	}
	// The line is now coherent in node 1's L2.
	l := s.Nodes[1].L2.Lookup(line)
	if l == nil || l.Transparent || l.State != Shared {
		t.Fatalf("line after refetch: %+v", l)
	}
}

func TestTransparentCopySurvivesConflictingWrite(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	producer := s.Nodes[0].CPUs[0]
	nodeA := s.Nodes[1].CPUs[1]

	write(s, producer, line, 0)
	tread(s, nodeA, line, 1000)
	// Producer writes again (it still owns the line; L1 hit, no protocol
	// action). Then a third node writes, stealing ownership: node 1 is not
	// on the sharer list, so it must receive no invalidation.
	write(s, producer, line, 2000)
	write(s, s.Nodes[2].CPUs[0], line, 3000)
	l := s.Nodes[1].L2.Lookup(line)
	if l == nil || !l.Transparent {
		t.Fatalf("transparent copy was disturbed by remote write: %+v", l)
	}
}

func TestSelfInvalidationWriteback(t *testing.T) {
	s, eng := newSys(t, 4)
	line := addrHomedAt(s, 2)
	owner := s.Nodes[0]
	write(s, owner.CPUs[0], line, 0) // exclusive, not in a critical section
	tread(s, s.Nodes[1].CPUs[1], line, 1000)
	eng.Run() // deliver the SI hint

	// R-stream of node 0 reaches a sync point: the hinted line is written
	// back and downgraded to Shared (producer-consumer heuristic).
	s.ProcessSI(owner, eng.Now())
	eng.Run()

	e := s.Home(line).Dir.Entry(line)
	if e.State != DirShared || !e.HasSharer(0) {
		t.Fatalf("after SI writeback: state=%v sharers=%b", e.State, e.Sharers)
	}
	l := owner.L2.Lookup(line)
	if l == nil || l.State != Shared || l.SIMark {
		t.Fatalf("owner line after SI: %+v", l)
	}
	if s.SIst.WrittenBack != 1 || s.SIst.Invalidated != 0 {
		t.Fatalf("SI stats = %+v", s.SIst)
	}
	// A later read by another node is now served from memory (no
	// three-hop intervention).
	pre := s.MS.Interventions
	read(s, s.Nodes[3].CPUs[0], line, eng.Now()+10000)
	if s.MS.Interventions != pre {
		t.Fatal("read after SI writeback still required an intervention")
	}
}

func TestSelfInvalidationMigratory(t *testing.T) {
	s, eng := newSys(t, 4)
	line := addrHomedAt(s, 2)
	owner := s.Nodes[0]
	// Store performed inside a critical section: migratory heuristic.
	s.Access(Req{CPU: owner.CPUs[0], Kind: Write, Addr: line, Role: RoleR, InCS: true}, 0)
	tread(s, s.Nodes[1].CPUs[1], line, 1000)
	eng.Run()

	s.ProcessSI(owner, eng.Now())
	eng.Run()

	if l := owner.L2.Lookup(line); l != nil {
		t.Fatalf("migratory line not invalidated: %+v", l)
	}
	e := s.Home(line).Dir.Entry(line)
	if e.State != DirIdle {
		t.Fatalf("directory after migratory SI: %v, want Idle", e.State)
	}
	if s.SIst.Invalidated != 1 {
		t.Fatalf("SI stats = %+v", s.SIst)
	}
}

func TestSIHintOnExclusiveGrantWithFutureSharers(t *testing.T) {
	s, eng := newSys(t, 4)
	line := addrHomedAt(s, 2)

	// A transparent load on a shared line marks node 1 as a future sharer.
	read(s, s.Nodes[0].CPUs[0], line, 0)
	tread(s, s.Nodes[1].CPUs[1], line, 1000)

	// Node 3's R-stream acquires exclusive ownership: the grant must carry
	// an SI hint because the future-sharer list is non-empty (Figure 8,
	// right half).
	s.Access(Req{CPU: s.Nodes[3].CPUs[0], Kind: Write, Addr: line, Role: RoleR}, 2000)
	l := s.Nodes[3].L2.Lookup(line)
	if l == nil || !l.SIMark {
		t.Fatalf("exclusive grant did not carry SI hint: %+v", l)
	}
	if s.SIst.FutureSharerHit != 1 {
		t.Fatalf("future sharer hits = %d, want 1", s.SIst.FutureSharerHit)
	}

	// At node 3's next sync point the line is written back, so node 1's
	// next read is a two-hop memory access.
	s.ProcessSI(s.Nodes[3], eng.Now())
	eng.Run()
	pre := s.MS.Interventions
	read(s, s.Nodes[1].CPUs[0], line, eng.Now()+10000)
	if s.MS.Interventions != pre {
		t.Fatal("read after SI writeback still required an intervention")
	}
}

func TestSIProcessingIsPaced(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams(2)
	s, err := NewSystem(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	owner := s.Nodes[0]
	// Mark several exclusive lines via transparent loads.
	const nLines = 5
	now := int64(0)
	for i := 0; i < nLines; i++ {
		a := Addr(i * p.LineSize * 2) // alternate homes, does not matter
		now = write(s, owner.CPUs[0], a, now)
		now = tread(s, s.Nodes[1].CPUs[1], a, now)
	}
	eng.Run()
	marked := 0
	owner.L2.ForEachValid(func(l *Line) {
		if l.SIMark {
			marked++
		}
	})
	if marked != nLines {
		t.Fatalf("marked = %d, want %d", marked, nLines)
	}
	start := eng.Now()
	s.ProcessSI(owner, start)
	eng.Run()
	// Processing is spaced SIRate apart: the engine's final event time
	// must be start + (n-1)*SIRate.
	if got, want := eng.Now(), start+int64(nLines-1)*p.SIRate; got != want {
		t.Fatalf("last SI action at %d, want %d", got, want)
	}
	if s.SIst.WrittenBack != nLines {
		t.Fatalf("written back = %d, want %d", s.SIst.WrittenBack, nLines)
	}
}

func TestPrefetchExclusive(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	nodeA := s.Nodes[1].CPUs[1]
	nodeR := s.Nodes[1].CPUs[0]

	// A-stream converts a skipped store into an exclusive prefetch.
	s.Access(Req{CPU: nodeA, Kind: PrefetchExcl, Addr: line, Role: RoleA}, 0)
	e := s.Home(line).Dir.Entry(line)
	if e.State != DirExclusive || e.Owner != 1 {
		t.Fatalf("prefetch-excl: state=%v owner=%d", e.State, e.Owner)
	}
	if s.MS.PrefetchExcl != 1 {
		t.Fatalf("prefetch count = %d, want 1", s.MS.PrefetchExcl)
	}
	// The R-stream's store now hits in the L2 (no directory traffic).
	pre := s.MS.LocalDirReqs + s.MS.RemoteDirReqs
	d := s.Access(Req{CPU: nodeR, Kind: Write, Addr: line, Role: RoleR}, 10000)
	if got := s.MS.LocalDirReqs + s.MS.RemoteDirReqs; got != pre {
		t.Fatal("R store after exclusive prefetch still went to the directory")
	}
	if d != 10000+s.P.L1Hit+s.P.L2Occ+s.P.L2Hit && d != 10000+s.P.L1Hit+s.P.L2Hit {
		t.Logf("note: write-after-prefetch done = %d", d)
	}
}

func TestEvictionClearsFutureBit(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams(2)
	p.L2Size = p.LineSize * p.L2Assoc // single set: easy to evict
	s, err := NewSystem(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	line := addrHomedAt(s, 1)
	write(s, s.Nodes[1].CPUs[0], line, 0)
	tread(s, s.Nodes[0].CPUs[1], line, 1000)
	e := s.Home(line).Dir.Entry(line)
	if !e.HasFuture(0) {
		t.Fatal("future bit not set")
	}
	// Sweep node 0's single L2 set to evict the transparent copy.
	now := int64(2000)
	for i := 1; i <= p.L2Assoc; i++ {
		now = read(s, s.Nodes[0].CPUs[1], line+Addr(i*p.LineSize), now)
	}
	if e.HasFuture(0) {
		t.Fatal("future bit not cleared by eviction")
	}
}

// TestProcessSIReusesList checks that ProcessSI empties a node's
// self-invalidation list in place, so the hints marked before the next
// synchronization point refill the same backing array.
func TestProcessSIReusesList(t *testing.T) {
	s, eng := newSys(t, 2)
	node := s.Nodes[0]
	mark := func(first int) {
		for i := first; i < first+4; i++ {
			line := Addr(i * s.P.LineSize)
			l := node.L2.Victim(line)
			l.Addr, l.State = line, Exclusive
			s.markSI(node, l)
		}
	}
	mark(0)
	backing := &node.siList[0]
	s.ProcessSI(node, eng.Now())
	if len(node.siList) != 0 {
		t.Fatalf("%d hints left after ProcessSI", len(node.siList))
	}
	mark(4)
	if &node.siList[0] != backing {
		t.Fatal("hints marked after ProcessSI went to a new backing array")
	}
}
