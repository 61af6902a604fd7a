package memsys

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"slipstream/internal/sim"
	"slipstream/internal/stats"
)

// TestFrameLayout pins the host size of a frame and of a classification
// record. At 32 bytes a 2-way L1 set is one 64-byte host cache line and a
// 4-way L2 set two; the records live in their cache's slab, not in the
// frame.
func TestFrameLayout(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Errorf("Line is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(reqRec{}); got != 16 {
		t.Errorf("reqRec is %d bytes, want 16", got)
	}
}

// refRecs is the oracle the slab is checked against: each line's open
// records in a slice of their own, appended in request order, and closed
// into a breakdown and per-node windows of its own.
type refRecs struct {
	open   []map[*Line][]reqRec // per node
	req    stats.ReqBreakdown
	window []ClassWindow
}

func newRefRecs(nodes int) *refRecs {
	r := &refRecs{open: make([]map[*Line][]reqRec, nodes), window: make([]ClassWindow, nodes)}
	for i := range r.open {
		r.open[i] = make(map[*Line][]reqRec)
	}
	return r
}

func (r *refRecs) add(node int, l *Line, role Role, excl bool, fillDone int64) {
	if role != RoleNone {
		r.open[node][l] = append(r.open[node][l], reqRec{role: role, excl: excl, fillDone: fillDone})
	}
}

func (r *refRecs) touch(node int, l *Line, role Role, t int64) {
	if role == RoleNone {
		return
	}
	recs := r.open[node][l]
	for i := range recs {
		switch {
		case recs[i].role == role:
		case t < recs[i].fillDone:
			recs[i].compDuring = true
		default:
			recs[i].compAfter = true
		}
	}
}

func (r *refRecs) close(node int, l *Line) {
	for _, rec := range r.open[node][l] {
		var c stats.ReqClass
		switch {
		case rec.role == RoleA && rec.compDuring:
			c = stats.ALate
		case rec.role == RoleA && rec.compAfter:
			c = stats.ATimely
		case rec.role == RoleA:
			c = stats.AOnly
		case rec.compDuring:
			c = stats.RLate
		case rec.compAfter:
			c = stats.RTimely
		default:
			c = stats.ROnly
		}
		if rec.excl {
			r.req.AddExclusive(c)
			continue
		}
		r.req.AddRead(c)
		switch c {
		case stats.ATimely:
			r.window[node].ATimely++
		case stats.ALate:
			r.window[node].ALate++
		case stats.AOnly:
			r.window[node].AOnly++
		}
	}
	delete(r.open[node], l)
}

// openRecs returns how many records the oracle holds open at node.
func (r *refRecs) openRecs(node int) int {
	n := 0
	for _, recs := range r.open[node] {
		n += len(recs)
	}
	return n
}

// chainLen returns the length of the record chain from head through
// c's slab, or -1 if the chain is longer than the slab (a cycle).
func chainLen(c *Cache, head int32) int {
	n := 0
	for i := head; i != 0; i = c.recs[i-1].next {
		if n++; n > len(c.recs) {
			return -1
		}
	}
	return n
}

// TestRecordSlabMatchesPerLineRecords drives random record openings,
// touches by either stream, closings, invalidations, evictions, window
// resets and end-of-run sweeps on a classifying system with 8-frame L2s,
// and checks every step against refRecs. The breakdown and every node's
// window must match the oracle's; the operated line's chain must hold as
// many records as the oracle's slice; and each slab must hold exactly its
// open records plus its free chain, never more than were open at once.
func TestRecordSlabMatchesPerLineRecords(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkRecordSlab(t, rand.New(rand.NewSource(seed)))
		})
	}
}

func checkRecordSlab(t *testing.T, rng *rand.Rand) {
	p := DefaultParams(3)
	p.L2Size, p.L2Assoc = 4*2*p.LineSize, 2
	p.L1Size, p.L1Assoc = 2*p.LineSize, 1
	s, err := NewSystem(sim.NewEngine(), p)
	if err != nil {
		t.Fatal(err)
	}
	s.Classify = true
	ref := newRefRecs(p.Nodes)
	peak := make([]int, p.Nodes)
	roles := []Role{RoleNone, RoleR, RoleA}
	now := int64(0)
	for step := 0; step < 3000; step++ {
		now += int64(rng.Intn(60))
		ni := rng.Intn(p.Nodes)
		n := s.Nodes[ni]
		// Sixteen lines over four sets of two ways: sets fill and evict.
		line := Addr(rng.Intn(16) * p.LineSize)
		l := n.L2.Lookup(line)
		role := roles[rng.Intn(len(roles))]
		switch op := rng.Intn(20); {
		case op < 8: // a request reaches the directory and fills the line
			if l == nil {
				l = n.L2.Victim(line)
				if l.State != Invalid {
					ref.close(ni, l)
					s.evictL2(n, l, now)
				}
				l.Addr, l.State = line, Shared
			}
			excl := rng.Intn(3) == 0
			fillDone := now + int64(rng.Intn(300))
			s.addRec(n.L2, l, role, excl, fillDone)
			ref.add(ni, l, role, excl, fillDone)
		case op < 14: // a stream references a resident line
			if l != nil {
				s.recordTouch(n.L2, l, role, now)
				ref.touch(ni, l, role, now)
			}
		case op < 16: // a remote write invalidates the node's copy
			if l != nil {
				ref.close(ni, l)
				s.invalidateNode(n, line)
			}
		case op < 17: // the records close, the line stays resident
			if l != nil {
				ref.close(ni, l)
				s.closeRecs(n, l)
			}
		case op < 19:
			n.WindowReset()
			ref.window[ni] = ClassWindow{}
		default: // end of run: every resident line's records close
			for i, n := range s.Nodes {
				n.L2.ForEachValid(func(l *Line) { ref.close(i, l) })
			}
			s.Finalize()
			for i := range s.Nodes {
				if open := ref.openRecs(i); open != 0 {
					t.Fatalf("step %d: node %d has %d records open on invalid lines", step, i, open)
				}
			}
		}
		if l != nil {
			if got, want := chainLen(n.L2, l.rec), len(ref.open[ni][l]); got != want {
				t.Fatalf("step %d: node %d line %#x chains %d records, want %d", step, ni, line, got, want)
			}
		}
		if s.Req != ref.req {
			t.Fatalf("step %d: breakdown %+v, want %+v", step, s.Req, ref.req)
		}
		for i, n := range s.Nodes {
			if n.Window != ref.window[i] {
				t.Fatalf("step %d: node %d window %+v, want %+v", step, i, n.Window, ref.window[i])
			}
			open := ref.openRecs(i)
			peak[i] = max(peak[i], open)
			free := chainLen(n.L2, n.L2.freeRec)
			if free < 0 || open+free != len(n.L2.recs) {
				t.Fatalf("step %d: node %d slab holds %d records, want %d open + %d free", step, i, len(n.L2.recs), open, free)
			}
			if len(n.L2.recs) > peak[i] {
				t.Fatalf("step %d: node %d slab holds %d records, at most %d were open at once", step, i, len(n.L2.recs), peak[i])
			}
		}
	}
}

// TestReleasedSlabOpensRecordsWithoutAllocating runs a classifying system
// that opens a record on each of 512 lines at every node, releases it, and
// checks that the next such system, built on the released storage, opens
// the same records without allocating: the slabs' capacity came back with
// the frames.
func TestReleasedSlabOpensRecordsWithoutAllocating(t *testing.T) {
	p := DefaultParams(2)
	const lines = 512
	build := func() *System {
		s, err := NewSystem(sim.NewEngine(), p)
		if err != nil {
			t.Fatal(err)
		}
		s.Classify = true
		// A directory allocates its page table the first time a line of a
		// page is touched, so the entries are made before the count.
		for i := 0; i < lines; i++ {
			line := Addr(i * p.LineSize)
			s.Home(line).Dir.Entry(line)
		}
		return s
	}
	// Every node's A-stream reads the same lines, so every slab grows to
	// the same capacity: the released slabs may come back swapped.
	open := func(s *System) {
		for i := 0; i < lines; i++ {
			for _, n := range s.Nodes {
				s.Access(Req{CPU: n.CPUs[1], Kind: Read, Addr: Addr(i * p.LineSize), Role: RoleA}, int64(i)*1000)
			}
		}
	}
	warm := build()
	open(warm)
	warm.Finalize()
	warm.Release()

	s := build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open(s)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("opening %d records on released storage allocated %d times", lines*p.Nodes, n)
	}
	s.Finalize()
	if got, want := s.Req.Reads[stats.AOnly], int64(lines*p.Nodes); got != want {
		t.Errorf("classified %d A-Only reads, want %d", got, want)
	}
	s.Release()
}
