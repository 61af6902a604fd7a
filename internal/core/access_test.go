package core

import (
	"testing"

	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/stats"
)

// accessSnap is what one access leaves behind: the task's clock and
// breakdown, the machine's counters, and the accessed line's frames in
// the task's L1 and in its node's L2.
type accessSnap struct {
	vnow   int64
	bd     stats.Breakdown
	ms     stats.MemStats
	l1, l2 memsys.Line
}

// scriptKernel runs one access script in every task and snapshots the
// memory system after each access, so that two runs can be compared
// access by access. The script covers a read miss and hit, a store that
// upgrades a shared line, a store hit, and, inside a critical section, a
// store to an exclusive line (which marks the node's L2 line written in
// the critical section), a read hit and a store to a line every task
// writes.
type scriptKernel struct {
	data  I64
	snaps map[[2]int][]accessSnap // by task id and role
}

func (k *scriptKernel) Name() string          { return "script" }
func (k *scriptKernel) Setup(p *Program)      { k.data = p.AllocI64((p.NumTasks() + 1) * 8) }
func (k *scriptKernel) Verify(*Program) error { return nil }

func (k *scriptKernel) Task(c *Ctx) {
	own, shared := c.ID()*8, c.NumTasks()*8 // one line each
	snap := func(word int) {
		sys := c.run.sys
		line := k.data.Addr(word).Line(sys.P.LineSize)
		s := accessSnap{vnow: c.vnow, bd: c.bd, ms: sys.MS}
		if l := c.cpu.L1.Lookup(line); l != nil {
			s.l1 = *l
		}
		if l := c.cpu.Node.L2.Lookup(line); l != nil {
			s.l2 = *l
		}
		key := [2]int{c.id, int(c.role)}
		k.snaps[key] = append(k.snaps[key], s)
	}
	k.data.Load(c, own)
	snap(own)
	k.data.Load(c, own)
	snap(own)
	k.data.Store(c, own, 1)
	snap(own)
	k.data.Store(c, own, 2)
	snap(own)
	c.Lock(1)
	k.data.Store(c, own, 3)
	snap(own)
	k.data.Load(c, own)
	snap(own)
	k.data.Store(c, shared, 4)
	snap(shared)
	c.Unlock(1)
	k.data.Load(c, shared)
	snap(shared)
}

// discard is an observer that reads nothing.
type discard struct{}

func (discard) Event(*obs.Event) {}

// TestUnobservedAccessesMatchObserved pins Ctx.access's two paths to each
// other. Unobserved, access applies memsys's hit rules to the L1 frame
// itself; observed, it asks IsL1Hit with a full Req. Access by access,
// the two must leave the same clocks, breakdowns, counters and L1 and L2
// frames, in single mode and in slipstream mode with TL+SI.
func TestUnobservedAccessesMatchObserved(t *testing.T) {
	for _, opts := range []Options{
		{Mode: ModeSingle, CMPs: 2},
		{Mode: ModeSlipstream, CMPs: 2, TransparentLoads: true, SelfInvalidate: true},
	} {
		var runs [2]*scriptKernel
		for i, observers := range [][]obs.Observer{nil, {discard{}}} {
			o := opts
			o.Observers = observers
			runs[i] = &scriptKernel{snaps: make(map[[2]int][]accessSnap)}
			if _, err := Run(o, runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		un, ob := runs[0].snaps, runs[1].snaps
		if len(un) != len(ob) {
			t.Fatalf("%v: %d task streams unobserved, %d observed", opts.Mode, len(un), len(ob))
		}
		for key, want := range ob {
			got := un[key]
			if len(got) != len(want) {
				t.Errorf("%v task %d role %v: %d accesses unobserved, %d observed", opts.Mode, key[0], memsys.Role(key[1]), len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%v task %d role %v access %d: unobserved left %+v, observed %+v",
						opts.Mode, key[0], memsys.Role(key[1]), i, got[i], want[i])
					break
				}
			}
		}
		// The in-CS store to an exclusive line must mark the L2 line, or
		// the script misses the rule that keeps such a store off the
		// private-hit path.
		r := memsys.RoleNone
		if opts.Mode == ModeSlipstream {
			r = memsys.RoleR
		}
		if s := ob[[2]int{0, int(r)}]; len(s) < 5 || !s[4].l2.WrittenInCS || s[4].l1.State != memsys.Exclusive {
			t.Errorf("%v: the in-CS store did not leave an exclusive L1 line and a written-in-CS L2 line", opts.Mode)
		}
	}
}
