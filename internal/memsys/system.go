package memsys

import (
	"fmt"
	"math/bits"

	"slipstream/internal/obs"
	"slipstream/internal/sim"
	"slipstream/internal/stats"
)

// CPU is one processor of a CMP node, with its private L1 data cache.
type CPU struct {
	ID   int // global processor id: node*2 + slot
	Slot int // 0 or 1 within the node
	Node *Node
	L1   *Cache
}

// Node is one CMP: two processors, a shared unified L2, the node's slice of
// the directory, its network-interface ports, and its directory controller.
type Node struct {
	ID   int
	sys  *System
	CPUs [2]*CPU
	L2   *Cache
	Dir  *Directory

	L2Port sim.Resource // shared L2 port: the two processors contend here
	NIIn   sim.Resource // network interface, incoming messages
	NIOut  sim.Resource // network interface, outgoing messages

	// dcBanks are the directory/memory-controller occupancy banks,
	// interleaved by line address (Params.DCBanks; 1 = Table 1's single
	// occupancy).
	dcBanks []sim.Resource

	siList []Addr // lines with pending self-invalidation hints

	// Window accumulates this node's classified A-stream read requests
	// since the last WindowReset. The adaptive A-R synchronization
	// controller (Section 6 of the paper: varying the scheme dynamically)
	// reads and resets it at session boundaries.
	Window ClassWindow
}

// DC returns the directory-controller bank serving the given line (with
// one bank, the node's single Table 1 occupancy).
func (n *Node) DC(line Addr) *sim.Resource {
	if len(n.dcBanks) == 1 {
		return &n.dcBanks[0]
	}
	return &n.dcBanks[int(line/Addr(n.sys.P.LineSize))%len(n.dcBanks)]
}

// DCStats sums busy cycles and uses across the node's DC banks.
func (n *Node) DCStats() (busy, uses int64) {
	for i := range n.dcBanks {
		busy += n.dcBanks[i].BusyCycles()
		uses += n.dcBanks[i].Uses()
	}
	return busy, uses
}

// ClassWindow counts a node's recently classified A-stream read requests.
type ClassWindow struct {
	ATimely int64
	ALate   int64
	AOnly   int64
}

// Total returns the number of classified A-stream reads in the window.
func (w *ClassWindow) Total() int64 { return w.ATimely + w.ALate + w.AOnly }

// WindowReset clears the node's classification window.
func (n *Node) WindowReset() { n.Window = ClassWindow{} }

// System is the whole machine: nodes, the interconnect parameters, the flat
// functional memory, and the measurement sinks.
type System struct {
	P   Params
	Eng *sim.Engine
	Mem *Mem

	Nodes []*Node

	// Classify enables request classification (Figure 7). It is turned on
	// for slipstream-mode runs, where accesses carry stream roles.
	Classify bool

	// Bus, when non-nil, receives observation events (internal/obs): access
	// start/completion with level classification, coherence-line changes,
	// and end-of-run resource occupancy. It is the sole observation
	// surface — runtime auditing (internal/audit) subscribes here too.
	// Subscribers must only observe and must not retain events: emission
	// reuses the scratch values below, so the unobserved hot path pays one
	// nil test and the observed one allocates nothing.
	Bus *obs.Bus

	// evAccess and evLine are the reused emission scratch events
	// (observedAccess, lineEvent).
	evAccess obs.Event
	evLine   obs.Event

	MS   stats.MemStats
	Req  stats.ReqBreakdown
	TL   stats.TLStats
	SIst stats.SIStats
}

// NewSystem builds a machine from the given parameters.
func NewSystem(eng *sim.Engine, p Params) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{P: p, Eng: eng, Mem: NewMem(p.LineSize)}
	lineShift := uint(bits.TrailingZeros(uint(p.LineSize)))
	s.Nodes = make([]*Node, p.Nodes)
	for i := range s.Nodes {
		n := &Node{
			ID:      i,
			sys:     s,
			L2:      NewCache(p.L2Size, p.L2Assoc, p.LineSize),
			Dir:     NewDirectory(i, lineShift, p.Nodes),
			dcBanks: make([]sim.Resource, p.DCBanks),
		}
		for slot := 0; slot < 2; slot++ {
			n.CPUs[slot] = &CPU{
				ID:   i*2 + slot,
				Slot: slot,
				Node: n,
				L1:   NewCache(p.L1Size, p.L1Assoc, p.LineSize),
			}
		}
		s.Nodes[i] = n
	}
	return s, nil
}

// CPUByID returns the processor with the given global id.
func (s *System) CPUByID(id int) *CPU {
	return s.Nodes[id/2].CPUs[id%2]
}

// Home returns the home node of a line-aligned address. Lines are
// interleaved round-robin across nodes.
func (s *System) Home(line Addr) *Node {
	return s.Nodes[int(line/Addr(s.P.LineSize))%len(s.Nodes)]
}

// Finalize closes all open classification records (end of run counts as the
// end of every line's residency) and reports end-of-run resource occupancy
// to the bus. Only classifying runs open records (addRec), so the others
// skip the sweep over every L2 frame.
func (s *System) Finalize() {
	if s.Classify {
		for _, n := range s.Nodes {
			n.L2.ForEachValid(func(l *Line) { s.closeRecs(n, l) })
		}
	}
	if s.Bus == nil {
		return
	}
	now := s.Eng.Now()
	for _, n := range s.Nodes {
		s.emitResource(now, fmt.Sprintf("node%d/l2port", n.ID), n.L2Port.BusyCycles(), n.L2Port.Uses())
		s.emitResource(now, fmt.Sprintf("node%d/ni-in", n.ID), n.NIIn.BusyCycles(), n.NIIn.Uses())
		s.emitResource(now, fmt.Sprintf("node%d/ni-out", n.ID), n.NIOut.BusyCycles(), n.NIOut.Uses())
		busy, uses := n.DCStats()
		s.emitResource(now, fmt.Sprintf("node%d/dc", n.ID), busy, uses)
	}
}

// Release hands every L1 and L2 frame slice and every directory page to
// the free lists NewCache and Directory.Entry draw from, so the next
// system reuses the storage instead of allocating it. The system is dead
// afterwards: its caches have no frames, so a stray access panics rather
// than read frames a later run now owns, and its directories hold no
// pages. Reused storage is reset to exactly a new one's state, so release
// order cannot move a result. The functional memory is not released: a
// caller may still read it after the run. core.Run calls Release once
// nothing can touch a cache or a directory again: after the result is
// collected and the end-of-run observers (the auditor's final sweep) have
// run, or after a failed run's processes have all exited. Systems that
// are never released are simply collected.
func (s *System) Release() {
	for _, n := range s.Nodes {
		n.L2.release()
		for _, c := range n.CPUs {
			c.L1.release()
		}
		n.Dir.release()
	}
}

func (s *System) emitResource(now int64, name string, busy, uses int64) {
	s.Bus.Emit(&obs.Event{
		Kind: obs.EvResource, Time: now, Dur: busy, Count: uses,
		Task: -1, CPU: -1, Note: name,
	})
}

// String summarizes the configuration.
func (s *System) String() string {
	return fmt.Sprintf("memsys: %d CMP nodes, L1 %dKB/%d-way, L2 %dKB/%d-way, line %dB",
		s.P.Nodes, s.P.L1Size>>10, s.P.L1Assoc, s.P.L2Size>>10, s.P.L2Assoc, s.P.LineSize)
}

// --- classification bookkeeping (Figure 7) ---

// addRec opens a classification record on an L2 line of cache c for a
// request that reached the directory: it takes a closed slot of c's slab,
// or appends one, and links it at the head of the line's chain.
func (s *System) addRec(c *Cache, l *Line, role Role, excl bool, fillDone int64) {
	if !s.Classify || role == RoleNone {
		return
	}
	r := reqRec{fillDone: fillDone, next: l.rec, role: role, excl: excl}
	if i := c.freeRec; i != 0 {
		c.freeRec = c.recs[i-1].next
		c.recs[i-1] = r
		l.rec = i
		return
	}
	//simlint:ignore hotpathalloc the slab keeps its capacity through Reset and the free lists, so it grows only past the most records any earlier run held open at once
	c.recs = append(c.recs, r)
	l.rec = int32(len(c.recs))
}

// recordTouch notes that the given stream referenced the line of cache c
// at time t, updating open records of the companion stream.
func (s *System) recordTouch(c *Cache, l *Line, role Role, t int64) {
	if !s.Classify || role == RoleNone {
		return
	}
	for i := l.rec; i != 0; {
		r := &c.recs[i-1]
		i = r.next
		if r.role == role {
			continue
		}
		if t < r.fillDone {
			r.compDuring = true
		} else {
			r.compAfter = true
		}
	}
}

// closeRecs classifies all open records on a line of the node's L2 and
// puts their slots on the slab's free chain. Called when the line's
// residency at node ends (eviction, invalidation, or end of run). A-stream
// read outcomes also feed the node's adaptive window.
func (s *System) closeRecs(node *Node, l *Line) {
	l2 := node.L2
	for i := l.rec; i != 0; {
		r := &l2.recs[i-1]
		var c stats.ReqClass
		switch {
		case r.role == RoleA && r.compDuring:
			c = stats.ALate
		case r.role == RoleA && r.compAfter:
			c = stats.ATimely
		case r.role == RoleA:
			c = stats.AOnly
		case r.compDuring:
			c = stats.RLate
		case r.compAfter:
			c = stats.RTimely
		default:
			c = stats.ROnly
		}
		if r.excl {
			s.Req.AddExclusive(c)
		} else {
			s.Req.AddRead(c)
			switch c {
			case stats.ATimely:
				node.Window.ATimely++
			case stats.ALate:
				node.Window.ALate++
			case stats.AOnly:
				node.Window.AOnly++
			}
		}
		next := r.next
		r.next = l2.freeRec
		l2.freeRec = i
		i = next
	}
	l.rec = 0
}
