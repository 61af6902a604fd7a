package memsys

import (
	"fmt"
	"reflect"
	"testing"

	"slipstream/internal/obs"
)

// lineSnapshot captures the globally visible metadata of one line across
// the whole machine: every node's L2 copy and the home directory entry.
type lineSnapshot struct {
	dir DirEntry
	l2  []Line
}

func snapshotLine(sys *System, line Addr) lineSnapshot {
	var snap lineSnapshot
	if e := sys.Home(line).Dir.Peek(line); e != nil {
		snap.dir = *e
	}
	for _, n := range sys.Nodes {
		var l Line
		if l2 := n.L2.Lookup(line); l2 != nil {
			l = *l2
			l.lru = 0 // LRU position is private timing state, not coherence state
			l.rec = 0 // the record slot is private bookkeeping too
		}
		snap.l2 = append(snap.l2, l)
	}
	return snap
}

func (s lineSnapshot) equal(o lineSnapshot) bool {
	if s.dir != o.dir || len(s.l2) != len(o.l2) {
		return false
	}
	for i := range s.l2 {
		a, b := s.l2[i], o.l2[i]
		if a.Addr != b.Addr || a.State != b.State || a.Transparent != b.Transparent ||
			a.SIMark != b.SIMark || a.WrittenInCS != b.WrittenInCS || a.FillDone != b.FillDone {
			return false
		}
	}
	return true
}

// l1hitState names a prepared residency situation for the tested line at
// node 0 / cpu 0.
var l1hitStates = []string{
	"absent", "l2shared", "l2excl", "l1shared", "l1excl",
	"transparent-l2", "transparent-l1",
}

// installL1HitState builds the named situation with a consistent directory.
// Transparent states model a stale copy at node 0 while node 1 owns the
// line exclusively (the only way transparent copies arise).
func installL1HitState(sys *System, state string) {
	line := Addr(0)
	node := sys.Nodes[0]
	e := sys.Home(line).Dir.Entry(line)
	setL2 := func(n *Node, st LineState, transparent bool) *Line {
		l := n.L2.Victim(line)
		l.Addr = line
		l.State = st
		l.Transparent = transparent
		return l
	}
	setL1 := func(st LineState, transparent bool) {
		l := node.CPUs[0].L1.Victim(line)
		l.Addr = line
		l.State = st
		l.Transparent = transparent
	}
	switch state {
	case "absent":
	case "l2shared", "l1shared":
		setL2(node, Shared, false)
		e.State = DirShared
		e.AddSharer(0)
		if state == "l1shared" {
			setL1(Shared, false)
		}
	case "l2excl", "l1excl":
		setL2(node, Exclusive, false)
		e.State = DirExclusive
		e.Owner = 0
		e.Sharers = 1
		if state == "l1excl" {
			setL1(Exclusive, false)
		}
	case "transparent-l2", "transparent-l1":
		setL2(sys.Nodes[1], Exclusive, false)
		e.State = DirExclusive
		e.Owner = 1
		e.Sharers = 1 << 1
		e.AddFuture(0)
		setL2(node, Shared, true)
		if state == "transparent-l1" {
			setL1(Shared, true)
		}
	default:
		panic("unknown state " + state)
	}
}

// l1hitSys returns a two-node machine holding the named residency
// situation, with a bus attached when observed is set.
func l1hitSys(t *testing.T, state string, observed bool) *System {
	sys, _ := newSys(t, 2)
	installL1HitState(sys, state)
	if observed {
		sys.Bus = obs.NewBus(&busRecorder{})
	}
	return sys
}

// unobservedHit is the runtime's unobserved hit path (core's Ctx.access
// without a bus): look the L1 frame up, ask PrivateHit, and on a hit let
// HitL1 perform it.
func unobservedHit(s *System, r Req, now int64) (done int64, ok bool) {
	l1 := r.CPU.L1.Lookup(r.Addr.Line(s.P.LineSize))
	if !l1.PrivateHit(r.Kind, r.Role, r.InCS) {
		return 0, false
	}
	return s.HitL1(r.CPU, l1, now), true
}

// TestIsL1HitDifferential pits IsL1Hit against Access, and the unobserved
// hit path against both, across every combination of access kind, stream
// role, line state, critical-section flag, and transparent-request flag,
// with and without a bus. Whenever IsL1Hit predicts a private hit, Access
// must charge exactly L1Hit cycles and leave every piece of globally
// visible state (directory, all L2 copies, all counters except L1Hits)
// untouched. This is the contract that lets the runtime simulate
// predicted hits at a skewed local clock. The unobserved path must do
// exactly what IsL1Hit followed, on a predicted hit, by Access does:
// report a miss exactly where IsL1Hit is false, and leave the same
// completion time, MemStats, and L1 frames and LRU order.
func TestIsL1HitDifferential(t *testing.T) {
	const issueAt = 1000
	predicted := 0
	for _, state := range l1hitStates {
		for _, kind := range []AccessKind{Read, Write, PrefetchExcl} {
			for _, role := range []Role{RoleNone, RoleR, RoleA} {
				for _, inCS := range []bool{false, true} {
					for _, reqTL := range []bool{false, true} {
						for _, observed := range []bool{false, true} {
							name := fmt.Sprintf("%s/%v/%v/incs=%v/tl=%v/bus=%v", state, kind, role, inCS, reqTL, observed)
							sys := l1hitSys(t, state, observed)
							req := func(s *System) Req {
								return Req{
									CPU: s.Nodes[0].CPUs[0], Kind: kind, Addr: 8,
									Role: role, InCS: inCS,
									Transparent: reqTL && kind == Read && role == RoleA,
								}
							}

							pre := snapshotLine(sys, 0)
							preMS := sys.MS
							preTL, preSI, preReq := sys.TL, sys.SIst, sys.Req
							pred := sys.IsL1Hit(req(sys))
							var done int64
							if pred {
								done = sys.Access(req(sys), issueAt)
							}
							if !observed {
								un := l1hitSys(t, state, false)
								got, ok := unobservedHit(un, req(un), issueAt)
								if ok != pred || got != done {
									t.Errorf("%s: unobserved hit path = %d, %v; IsL1Hit then Access = %d, %v", name, got, ok, done, pred)
								}
								if un.MS != sys.MS {
									t.Errorf("%s: unobserved hit path MemStats %+v, IsL1Hit then Access %+v", name, un.MS, sys.MS)
								}
								l1, refL1 := un.Nodes[0].CPUs[0].L1, sys.Nodes[0].CPUs[0].L1
								if !reflect.DeepEqual(l1.lines, refL1.lines) || l1.clock != refL1.clock {
									t.Errorf("%s: unobserved hit path left different L1 frames or LRU order", name)
								}
							}
							if !pred {
								continue
							}
							predicted++
							if got := done - issueAt; got != sys.P.L1Hit {
								t.Errorf("%s: predicted hit took %d cycles, want %d", name, got, sys.P.L1Hit)
							}
							if !snapshotLine(sys, 0).equal(pre) {
								t.Errorf("%s: predicted hit changed directory or L2 state", name)
							}
							wantMS := preMS
							wantMS.L1Hits++
							if sys.MS != wantMS {
								t.Errorf("%s: predicted hit changed MemStats: %+v -> %+v", name, preMS, sys.MS)
							}
							if sys.TL != preTL || sys.SIst != preSI || sys.Req != preReq {
								t.Errorf("%s: predicted hit changed TL/SI/classification counters", name)
							}
						}
					}
				}
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no combination was predicted as a hit; the test is vacuous")
	}
}

// TestIsL1HitPredictions pins the predicate's value for the interesting
// corners, including the regression this PR fixes: an in-CS store to an
// L1-exclusive line completes in L1-hit time but marks the node's shared
// L2 line written-in-CS, so it must NOT be predicted as a private hit.
func TestIsL1HitPredictions(t *testing.T) {
	cases := []struct {
		state string
		kind  AccessKind
		role  Role
		inCS  bool
		want  bool
	}{
		{"absent", Read, RoleNone, false, false},
		{"l2shared", Read, RoleNone, false, false},
		{"l1shared", Read, RoleNone, false, true},
		{"l1shared", Read, RoleNone, true, true}, // reads in CS stay private
		{"l1shared", Write, RoleNone, false, false},
		{"l1excl", Read, RoleR, false, true},
		{"l1excl", Write, RoleR, false, true},
		{"l1excl", Write, RoleR, true, false}, // regression: WrittenInCS leaks to L2
		{"l1excl", Write, RoleA, true, false},
		{"l1excl", PrefetchExcl, RoleA, false, true},
		{"transparent-l1", Read, RoleA, false, true},
		{"transparent-l1", Read, RoleR, false, false}, // invisible to R
		{"transparent-l1", Read, RoleNone, false, false},
		{"transparent-l1", Write, RoleA, false, false},
		{"transparent-l2", Read, RoleA, false, false}, // not in L1
	}
	for _, tc := range cases {
		sys, _ := newSys(t, 2)
		installL1HitState(sys, tc.state)
		req := Req{CPU: sys.Nodes[0].CPUs[0], Kind: tc.kind, Addr: 8, Role: tc.role, InCS: tc.inCS}
		if got := sys.IsL1Hit(req); got != tc.want {
			t.Errorf("IsL1Hit(%s/%v/%v/incs=%v) = %v, want %v",
				tc.state, tc.kind, tc.role, tc.inCS, got, tc.want)
		}
	}
}
