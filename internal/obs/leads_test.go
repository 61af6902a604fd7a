package obs

import (
	"reflect"
	"testing"
)

// feed delivers events to l in order.
func feed(l *Leads, events ...Event) {
	for i := range events {
		l.Event(&events[i])
	}
}

func session(time int64, task, sess int, role Role) Event {
	return Event{Kind: EvSession, Time: time, Task: task, Session: sess, Role: role}
}

func TestLeadSeries(t *testing.T) {
	l := &Leads{}
	if got := l.Mean(); got != 0 {
		t.Fatalf("empty Mean() = %v, want 0", got)
	}
	feed(l,
		// Task 0: A reaches session boundaries 0 and 1 ahead of R by 100 and 250.
		session(900, 0, 0, RoleA),
		session(1000, 0, 0, RoleR),
		session(1750, 0, 1, RoleA),
		session(2000, 0, 1, RoleR),
		// Task 1: A behind by 50 in session 0; session 1 has no A record.
		session(1050, 1, 0, RoleA),
		session(1000, 1, 0, RoleR),
		session(2000, 1, 1, RoleR),
		// Task 2: only the A-stream arrived.
		session(500, 2, 0, RoleA),
		// Task 3: a stream without a role counts as the R-stream.
		session(700, 3, 0, RoleA),
		session(1000, 3, 0, RoleNone),
	)
	// Other kinds carrying session numbers are not arrivals.
	for _, k := range Kinds {
		if k != EvSession {
			feed(l, Event{Kind: k, Time: 100, Task: 4, Role: RoleA}, Event{Kind: k, Time: 300, Task: 4, Role: RoleR})
		}
	}
	want := []Lead{
		{Task: 0, Session: 0, Cycles: 100},
		{Task: 0, Session: 1, Cycles: 250},
		{Task: 1, Session: 0, Cycles: -50},
		{Task: 3, Session: 0, Cycles: 300},
	}
	if got := l.Series(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Series() = %v, want %v", got, want)
	}
	if got, want := l.Mean(), float64(100+250-50+300)/4; got != want {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
}

func TestLeadSeriesUsesFirstArrival(t *testing.T) {
	l := &Leads{}
	// Duplicate session records (e.g. after a refork): the first wins.
	feed(l,
		session(500, 0, 0, RoleA),
		session(800, 0, 0, RoleA),
		session(1000, 0, 0, RoleR),
		session(1200, 0, 0, RoleR),
	)
	if got := l.Series(); len(got) != 1 || got[0].Cycles != 500 {
		t.Fatalf("Series() = %v, want one lead of 500", got)
	}
}
