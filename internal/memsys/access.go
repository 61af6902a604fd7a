package memsys

import (
	"fmt"

	"slipstream/internal/obs"
	"slipstream/internal/stats"
)

// AccessKind distinguishes the operations the task runtime issues against
// the memory system.
type AccessKind uint8

// Access kinds.
const (
	Read         AccessKind = iota
	Write                   // store requiring ownership
	PrefetchExcl            // A-stream store converted to an exclusive prefetch
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case PrefetchExcl:
		return "prefetch-excl"
	}
	return "?"
}

// Req describes one data access. The runtime sets Transparent when the
// A-stream should issue a read that misses to the directory as a
// transparent load (Section 4.1), and InCS when a store is issued inside a
// critical section (the migratory heuristic for self-invalidation).
//
// Task and Session identify the issuing task incarnation for observation
// only: they attribute access events on the bus and have no effect on
// timing or coherence.
type Req struct {
	CPU         *CPU
	Kind        AccessKind
	Addr        Addr
	Role        Role
	Transparent bool
	InCS        bool
	Task        int
	Session     int
}

// IsL1Hit reports whether the access would be satisfied entirely by the
// processor's private L1 without touching globally visible state. Callers
// use it to batch private work under a bounded clock skew: a predicted hit
// touches nothing but the private L1 itself, so it may be simulated at a
// slightly skewed local time. The prediction is deliberately conservative:
// a store inside a critical section marks the node's shared L2 line as
// written-in-CS (the migratory heuristic), so it is not predicted as a
// private hit even though it completes in L1-hit time. The audit rule
// guarding this contract: prediction true implies Access charges exactly
// Params.L1Hit cycles and leaves directory, L2, and all non-L1Hits
// counters unchanged.
func (s *System) IsL1Hit(r Req) bool {
	return r.CPU.L1.Lookup(r.Addr.Line(s.P.LineSize)).PrivateHit(r.Kind, r.Role, r.InCS)
}

// PrivateHit reports whether l, the frame an L1's Lookup returned for an
// access (nil when the line is not there), satisfies the access as a
// private hit: the access is of the given kind, issued by role, inside a
// critical section if inCS. These are the only hit rules: IsL1Hit and the
// runtime's unobserved hits both apply them.
//
//   - No valid frame is a miss.
//   - A transparent copy serves only the A-stream.
//   - A store needs the line Exclusive, and must come from outside a
//     critical section: an in-CS store marks the node's L2 line
//     WrittenInCS, which is not private state.
func (l *Line) PrivateHit(kind AccessKind, role Role, inCS bool) bool {
	if l == nil || (l.Transparent && role != RoleA) {
		return false
	}
	return kind == Read || (l.State == Exclusive && !inCS)
}

// HitL1 performs a private hit at time now on the frame l of cpu's L1,
// one PrivateHit accepted, and returns its completion time: it refreshes
// l's LRU position and counts the hit, exactly as Access would, but emits
// nothing. So only an unobserved run calls it; an observed run sends a
// predicted hit through Access, and observers see it as any access.
func (s *System) HitL1(cpu *CPU, l *Line, now int64) int64 {
	cpu.L1.Touch(l)
	s.MS.L1Hits++
	return now + s.P.L1Hit
}

// Access simulates one data access beginning at time now and returns its
// completion time. State (caches, directory) is updated at issue time;
// per-line fill times provide request merging for later arrivals.
//
//simlint:hotpath memory-system access path: every load and store of every simulated task lands here
func (s *System) Access(r Req, now int64) int64 {
	if s.Bus == nil {
		return s.access(r, now)
	}
	return s.observedAccess(r, now)
}

// observedAccess wraps access with bus emission; the fast path above keeps
// the unobserved cost at one pointer test. The emitted events live in
// System scratch space (observers must not retain them — see obs.Observer),
// so observation adds no allocations to the access path.
func (s *System) observedAccess(r Req, now int64) int64 {
	pre := s.MS
	s.setAccessEvent(obs.EvAccessStart, r, now)
	s.Bus.Emit(&s.evAccess)
	done := s.access(r, now)
	s.setAccessEvent(obs.EvAccess, r, done)
	s.evAccess.Dur = done - now
	s.evAccess.Level = s.classify(&pre)
	s.Bus.Emit(&s.evAccess)
	return done
}

// setAccessEvent fills the scratch access event. A dedicated scratch slot
// is safe against the line events access emits in between: those use
// evLine, and by the time the completion event is built here, the start
// event has been fully delivered.
func (s *System) setAccessEvent(k obs.Kind, r Req, t int64) {
	s.evAccess = obs.Event{
		Kind:    k,
		Time:    t,
		Task:    r.Task,
		CPU:     r.CPU.ID,
		Session: r.Session,
		Role:    obs.Role(r.Role),
		Op:      obs.Op(r.Kind),
		Addr:    uint64(r.Addr),
	}
	if r.Transparent {
		s.evAccess.Flags |= obs.FlagTransparent
	}
	if r.InCS {
		s.evAccess.Flags |= obs.FlagInCS
	}
}

// classify derives where the access just simulated was satisfied from the
// MemStats delta since pre. One access performs at most one directory
// transaction, so the first counter that moved identifies the level.
func (s *System) classify(pre *stats.MemStats) obs.Level {
	switch {
	case s.MS.RemoteDirReqs > pre.RemoteDirReqs:
		return obs.LevelDirRemote
	case s.MS.LocalDirReqs > pre.LocalDirReqs:
		return obs.LevelDirLocal
	case s.MS.L2Hits > pre.L2Hits:
		return obs.LevelL2
	default:
		return obs.LevelL1
	}
}

// lineEvent notifies the bus that the coherence state of line changed. The
// event reuses System scratch space, as in observedAccess.
func (s *System) lineEvent(line Addr) {
	if s.Bus == nil {
		return
	}
	s.evLine = obs.Event{Kind: obs.EvLine, Time: s.Eng.Now(), Task: -1, CPU: -1, Addr: uint64(line)}
	if de := s.Home(line).Dir.Peek(line); de != nil {
		s.evLine.Dir = obs.DirState(de.State)
		s.evLine.Sharers = de.Sharers
	}
	s.Bus.Emit(&s.evLine)
}

func (s *System) access(r Req, now int64) int64 {
	cpu := r.CPU
	node := cpu.Node
	line := r.Addr.Line(s.P.LineSize)
	t := now + s.P.L1Hit

	// L1: transparent copies are visible only to the A-stream.
	if l1 := cpu.L1.Lookup(line); l1 != nil && !(l1.Transparent && r.Role != RoleA) {
		if r.Kind == Read {
			cpu.L1.Touch(l1)
			s.MS.L1Hits++
			return t
		}
		if l1.State == Exclusive {
			cpu.L1.Touch(l1)
			s.MS.L1Hits++
			if r.InCS {
				if l2 := node.L2.Lookup(line); l2 != nil {
					l2.WrittenInCS = true
				}
			}
			return t
		}
	}
	s.MS.L1Misses++

	// L2: the shared port is where the node's two processors contend.
	t = node.L2Port.Acquire(t, s.P.L2Occ) + s.P.L2Hit

	l2 := node.L2.Lookup(line)

	// A transparent (non-coherent) copy only serves A-stream reads; any
	// other access discards it and refetches coherently. Discarding ends
	// the copy's residency, so open classification records close.
	if l2 != nil && l2.Transparent && !(r.Role == RoleA && r.Kind == Read) {
		s.recordTouch(node.L2, l2, r.Role, t)
		s.closeRecs(node, l2)
		s.Home(line).Dir.Entry(line).ClearFuture(node.ID)
		s.invalidateL1s(node, line)
		clearLine(l2)
		s.lineEvent(line)
	}

	if l2 != nil && l2.State != Invalid {
		// Record the companion touch at arrival time, then merge with an
		// outstanding fill, if any: touching a line whose fill is still in
		// flight is what distinguishes the Late classes.
		s.recordTouch(node.L2, l2, r.Role, t)
		if l2.FillDone > t {
			t = l2.FillDone
			s.MS.MergedFills++
		}
		if r.Kind == Read {
			s.MS.L2Hits++
			node.L2.Touch(l2)
			s.fillL1(cpu, line, Shared, l2.Transparent)
			return t
		}
		if l2.State == Exclusive {
			s.MS.L2Hits++
			node.L2.Touch(l2)
			if r.InCS {
				l2.WrittenInCS = true
			}
			s.fillL1(cpu, line, Exclusive, false)
			return t
		}
		// Shared line, ownership needed: upgrade at the directory.
		s.MS.L2Misses++
		t = s.dirTransaction(node, line, r, t, l2, true)
		s.fillL1(cpu, line, Exclusive, false)
		return t
	}

	// L2 miss: allocate a frame (evicting if necessary) and go to the home
	// directory.
	s.MS.L2Misses++
	frame := l2
	if frame == nil {
		frame = node.L2.Victim(line)
		if frame.State != Invalid {
			s.evictL2(node, frame, t)
		}
	}
	t = s.dirTransaction(node, line, r, t, frame, false)
	if r.Kind == Read {
		s.fillL1(cpu, line, Shared, frame.Transparent)
	} else {
		s.fillL1(cpu, line, Exclusive, false)
	}
	return t
}

// dirTransaction carries a request that missed (or needs an upgrade) to the
// line's home directory and back, filling frame. It returns the completion
// time at the requesting L2.
func (s *System) dirTransaction(node *Node, line Addr, r Req, t int64, frame *Line, upgrade bool) int64 {
	home := s.Home(line)
	local := home == node
	p := &s.P
	if local {
		s.MS.LocalDirReqs++
	} else {
		s.MS.RemoteDirReqs++
	}

	// Outbound request.
	t += p.BusTime
	if local {
		t = home.DC(line).Acquire(t, p.PILocalDCTime) + p.PILocalDCTime
	} else {
		t = node.DC(line).Acquire(t, p.PIRemoteDCTime) + p.PIRemoteDCTime
		t += node.NIOut.Wait(t, p.NIPortOcc)
		t += p.NetTime
		t += home.NIIn.Wait(t, p.NIPortOcc)
		t = home.DC(line).Acquire(t, p.NILocalDCTime) + p.NILocalDCTime
	}

	e := home.Dir.Entry(line)

	// Any R-stream request for a line resets the requester's
	// future-sharer bit (Section 4.2).
	if r.Role == RoleR {
		e.ClearFuture(node.ID)
	}

	isRead := r.Kind == Read
	if r.Role == RoleA && isRead {
		s.TL.AReadRequests++
	}
	transparent := isRead && r.Transparent && r.Role == RoleA

	replyFromHome := true
	fillState := Shared
	fillTransparent := false
	siHint := false

	switch {
	case transparent:
		s.TL.TransparentIssued++
		if e.State == DirExclusive && e.Owner != node.ID {
			// Stale copy straight from memory; the owner keeps its
			// exclusive copy but receives a self-invalidation hint.
			s.TL.TransparentReply++
			t += p.MemTime
			e.AddFuture(node.ID)
			s.sendSIHint(home, s.Nodes[e.Owner], line)
			fillTransparent = true
		} else {
			// Upgraded to a normal load; the requester becomes both a
			// sharer and a future sharer.
			s.TL.Upgraded++
			e.AddFuture(node.ID)
			t = s.dirRead(node, home, line, e, t, &replyFromHome)
		}
	case isRead:
		t = s.dirRead(node, home, line, e, t, &replyFromHome)
	default:
		preInv := s.MS.Invalidations
		preItv := s.MS.Interventions
		t = s.dirReadX(node, home, line, e, t, upgrade, &replyFromHome)
		if r.Kind == PrefetchExcl {
			s.MS.PrefetchInvals += s.MS.Invalidations - preInv
			s.MS.PrefetchSteals += s.MS.Interventions - preItv
		}
		fillState = Exclusive
		// An exclusive grant for a line with future sharers carries a
		// self-invalidation hint to the new owner.
		if e.Future&^(1<<uint(node.ID)) != 0 {
			siHint = true
			s.SIst.FutureSharerHit++
			s.SIst.HintsSent++
		}
	}

	// Reply. Three-hop interventions reply directly from the owner and
	// have already been charged.
	if replyFromHome && !local {
		t += home.NIOut.Wait(t, p.NIPortOcc)
		t += p.NetTime
		t += node.NIIn.Wait(t, p.NIPortOcc)
		t = node.DC(line).Acquire(t, p.NIRemoteDCTime) + p.NIRemoteDCTime
	}
	t += p.BusTime

	// Fill the frame.
	frame.Addr = line
	frame.State = fillState
	frame.Transparent = fillTransparent
	frame.FillDone = t
	frame.WrittenInCS = false
	frame.SIMark = false
	if siHint {
		s.markSI(node, frame)
	}
	if r.InCS && !isRead {
		frame.WrittenInCS = true
	}
	node.L2.Touch(frame)
	s.addRec(node.L2, frame, r.Role, !isRead, t)
	if r.Kind == PrefetchExcl {
		s.MS.PrefetchExcl++
	}
	s.lineEvent(line)
	return t
}

// dirRead performs the home-directory action for a normal read request.
func (s *System) dirRead(node, home *Node, line Addr, e *DirEntry, t int64, replyFromHome *bool) int64 {
	p := &s.P
	switch e.State {
	case DirIdle, DirShared:
		t += p.MemTime
		e.State = DirShared
		e.AddSharer(node.ID)
	case DirExclusive:
		if e.Owner == node.ID {
			panic(fmt.Sprintf("memsys: read request from exclusive owner node %d line %#x", node.ID, line))
		}
		owner := s.Nodes[e.Owner]
		s.MS.Interventions++
		t = s.hop(home, owner, line, t)
		t = owner.L2Port.Acquire(t, p.L2Occ) + p.L2Hit
		s.downgradeNode(owner, line)
		t = s.hop(owner, node, line, t)
		*replyFromHome = false
		e.State = DirShared
		e.Sharers = 0
		e.AddSharer(owner.ID)
		e.AddSharer(node.ID)
	}
	return t
}

// dirReadX performs the home-directory action for an ownership request
// (write miss, upgrade, or exclusive prefetch).
func (s *System) dirReadX(node, home *Node, line Addr, e *DirEntry, t int64, upgrade bool, replyFromHome *bool) int64 {
	p := &s.P
	switch e.State {
	case DirIdle:
		t += p.MemTime
	case DirShared:
		cnt := int64(0)
		anyRemote := false
		//simlint:ignore hotpathalloc invalidation sweep closure; sharer fan-out is the miss path, not the steady-state hit path
		e.ForEachSharer(func(sh int) {
			if sh == node.ID {
				return
			}
			s.invalidateNode(s.Nodes[sh], line)
			cnt++
			if sh != home.ID {
				anyRemote = true
			}
		})
		s.MS.Invalidations += cnt
		// Data fetch (if needed) overlaps invalidation/acknowledgment.
		tData := t
		if !upgrade {
			tData += p.MemTime
		}
		tAck := t
		if cnt > 0 {
			rt := 2 * p.BusTime
			if anyRemote {
				rt = 2 * p.NetTime
			}
			tAck += p.InvalOcc*cnt + rt
		}
		t = max(tData, tAck)
	case DirExclusive:
		if e.Owner != node.ID {
			owner := s.Nodes[e.Owner]
			s.MS.Interventions++
			t = s.hop(home, owner, line, t)
			t = owner.L2Port.Acquire(t, p.L2Occ) + p.L2Hit
			s.invalidateNode(owner, line)
			s.MS.Writebacks++
			t = s.hop(owner, node, line, t)
			*replyFromHome = false
		}
	}
	e.State = DirExclusive
	e.Owner = node.ID
	e.Sharers = 1 << uint(node.ID)
	return t
}

// hop charges the latency of a protocol message for the given line from
// node a to node b (forwarded interventions and direct replies).
func (s *System) hop(a, b *Node, line Addr, t int64) int64 {
	p := &s.P
	if a == b {
		return t + p.BusTime
	}
	t += a.NIOut.Wait(t, p.NIPortOcc)
	t += p.NetTime
	t += b.NIIn.Wait(t, p.NIPortOcc)
	return b.DC(line).Acquire(t, p.NIRemoteDCTime) + p.NIRemoteDCTime
}

// PushL1 installs a line the node's L2 already holds coherently into the
// given processor's L1 (an L2-to-L1 push). It models the explicit
// A-to-R access-pattern forwarding of the paper's Section 6: the push
// consumes L2 port bandwidth asynchronously but does not stall the
// processor. It reports whether a push happened.
func (s *System) PushL1(cpu *CPU, line Addr, now int64) bool {
	l2 := cpu.Node.L2.Lookup(line)
	if l2 == nil || l2.State == Invalid || l2.Transparent || l2.FillDone > now {
		return false
	}
	if l1 := cpu.L1.Lookup(line); l1 != nil {
		return false // already resident
	}
	cpu.Node.L2Port.Acquire(now, s.P.L2Occ)
	state := Shared
	if l2.State == Exclusive {
		state = Exclusive
	}
	s.fillL1(cpu, line, state, false)
	s.MS.L1Pushes++
	s.lineEvent(line)
	return true
}

// fillL1 installs or upgrades the line in the processor's L1.
func (s *System) fillL1(cpu *CPU, line Addr, state LineState, transparent bool) {
	l1 := cpu.L1.Lookup(line)
	if l1 == nil {
		l1 = cpu.L1.Victim(line)
		clearLine(l1) // L1 evictions are silent; L2 is inclusive
	}
	l1.Addr = line
	if state == Exclusive {
		l1.State = Exclusive
	} else if l1.State != Exclusive {
		l1.State = Shared
	}
	l1.Transparent = transparent
	cpu.L1.Touch(l1)
}

// invalidateL1s removes the line from both L1s of a node (inclusion).
func (s *System) invalidateL1s(node *Node, line Addr) {
	for _, cpu := range node.CPUs {
		if l1 := cpu.L1.Lookup(line); l1 != nil {
			clearLine(l1)
		}
	}
}

// downgradeNode demotes a node's exclusive copy to shared (writeback).
func (s *System) downgradeNode(node *Node, line Addr) {
	l2 := node.L2.Lookup(line)
	if l2 == nil || l2.State != Exclusive {
		panic(fmt.Sprintf("memsys: downgrade of non-exclusive line %#x at node %d", line, node.ID))
	}
	l2.State = Shared
	l2.SIMark = false
	l2.WrittenInCS = false
	s.MS.Writebacks++
	for _, cpu := range node.CPUs {
		if l1 := cpu.L1.Lookup(line); l1 != nil && l1.State == Exclusive {
			l1.State = Shared
		}
	}
}

// invalidateNode removes a node's coherent copy of the line. Future-sharer
// bits survive invalidation (they predict re-reading after a conflicting
// write); only eviction and R-stream requests reset them.
func (s *System) invalidateNode(node *Node, line Addr) {
	l2 := node.L2.Lookup(line)
	if l2 == nil || l2.State == Invalid {
		panic(fmt.Sprintf("memsys: invalidation of absent line %#x at node %d", line, node.ID))
	}
	s.closeRecs(node, l2)
	s.invalidateL1s(node, line)
	clearLine(l2)
}

// evictL2 displaces a valid L2 line: dirty exclusives write back, shared
// copies leave the sharer list, and the node's future-sharer bit resets.
func (s *System) evictL2(node *Node, frame *Line, t int64) {
	line := frame.Addr
	home := s.Home(line)
	e := home.Dir.Entry(line)
	s.closeRecs(node, frame)
	s.MS.Evictions++
	if frame.Transparent {
		e.ClearFuture(node.ID)
	} else {
		switch frame.State {
		case Exclusive:
			if e.State == DirExclusive && e.Owner == node.ID {
				e.State = DirIdle
				e.Sharers = 0
			}
			s.MS.Writebacks++
			// The writeback consumes home directory-controller time
			// asynchronously; it does not delay the displacing request.
			home.DC(line).Acquire(t+s.P.BusTime, s.P.NIRemoteDCTime)
		case Shared:
			e.RemoveSharer(node.ID)
			if e.State == DirShared && e.Sharers == 0 {
				e.State = DirIdle
			}
		}
		e.ClearFuture(node.ID)
	}
	s.invalidateL1s(node, line)
	clearLine(frame)
	s.lineEvent(line)
}

// markSI marks a resident exclusive line for self-invalidation at the
// node's next R-stream synchronization point.
func (s *System) markSI(node *Node, l *Line) {
	if l.SIMark {
		return
	}
	l.SIMark = true
	//simlint:ignore hotpathalloc self-invalidation list capacity is reused across sessions after warmup
	node.siList = append(node.siList, l.Addr)
}

// sendSIHint delivers a self-invalidation hint from the home directory to
// the current exclusive owner, after the network transit.
func (s *System) sendSIHint(home, owner *Node, line Addr) {
	s.SIst.HintsSent++
	delay := s.P.NetTime
	if home == owner {
		delay = s.P.BusTime
	}
	s.scheduleSI(s.Eng.Now()+delay, owner, line, true)
}

// ProcessSI is called by the runtime when a node's R-stream reaches a
// synchronization point: hinted lines are written back or invalidated
// asynchronously, one every Params.SIRate cycles (Section 4.2).
func (s *System) ProcessSI(node *Node, now int64) {
	i := int64(0)
	for _, addr := range node.siList {
		l := node.L2.Lookup(addr)
		if l == nil || !l.SIMark {
			continue
		}
		at := now + s.P.SIRate*i
		i++
		s.scheduleSI(at, node, addr, false)
	}
	// The events above hold their own copies of the addresses, so the
	// list's backing array is free for markSI to refill.
	node.siList = node.siList[:0]
}

// siAction is one scheduled SI action: a hint's delivery to the line's
// exclusive owner (sendSIHint) or a self-invalidation (ProcessSI). The
// records come from a per-system pool, and each is scheduled through its
// fire method value, bound once when the record is made, so an SI action
// allocates nothing once the pool holds as many records as the run ever
// has pending at once.
type siAction struct {
	s    *System
	node *Node // the owner a hint goes to, or the self-invalidating node
	line Addr
	hint bool
	fire func() // the bound run method
	next *siAction
}

// scheduleSI schedules an SI action at time at, on a record taken from
// the pool or made.
func (s *System) scheduleSI(at int64, node *Node, line Addr, hint bool) {
	e := s.siFree
	if e == nil {
		//simlint:ignore hotpathalloc the pool grows only to the most SI actions the run has pending at once
		e = &siAction{s: s}
		e.fire = e.run
	} else {
		s.siFree = e.next
	}
	e.node, e.line, e.hint = node, line, hint
	s.Eng.At(at, e.fire)
}

// run performs the scheduled action, after putting the record back in the
// pool.
func (e *siAction) run() {
	s, node, line, hint := e.s, e.node, e.line, e.hint
	e.node, e.next, s.siFree = nil, s.siFree, e
	if !hint {
		s.selfInvalidate(node, line)
		return
	}
	if l := node.L2.Lookup(line); l != nil && l.State == Exclusive {
		s.markSI(node, l)
	}
}

// selfInvalidate performs one deferred self-invalidation action: lines
// written inside a critical section are assumed migratory and invalidated;
// others are written back and downgraded to shared (producer-consumer).
func (s *System) selfInvalidate(node *Node, addr Addr) {
	l := node.L2.Lookup(addr)
	if l == nil || !l.SIMark || l.State != Exclusive {
		return
	}
	e := s.Home(addr).Dir.Entry(addr)
	if e.State != DirExclusive || e.Owner != node.ID {
		return
	}
	if l.WrittenInCS {
		s.SIst.Invalidated++
		s.MS.Writebacks++
		s.closeRecs(node, l)
		s.invalidateL1s(node, addr)
		clearLine(l)
		e.State = DirIdle
		e.Sharers = 0
	} else {
		s.SIst.WrittenBack++
		s.MS.Writebacks++
		l.State = Shared
		l.SIMark = false
		l.WrittenInCS = false
		for _, cpu := range node.CPUs {
			if l1 := cpu.L1.Lookup(addr); l1 != nil && l1.State == Exclusive {
				l1.State = Shared
			}
		}
		e.State = DirShared
		e.Sharers = 1 << uint(node.ID)
	}
	s.lineEvent(addr)
}
