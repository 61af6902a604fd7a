package obs

import "sort"

// Lead is the A-stream's arrival lead over its R-stream for one session of
// one task pair: positive means the A-stream reached the session boundary
// first (it is running ahead).
type Lead struct {
	Task    int
	Session int
	Cycles  int64
}

// Leads is an Observer that measures how far ahead of its R-stream each
// A-stream reaches every session boundary — the lead that decides whether
// the A-stream's prefetches are timely (Figure 7 of the paper). It keeps
// only the first EvSession arrival of each stream per task and session, so
// a session re-entered after a recovery counts from its first arrival.
// Events from RoleA count as the A-stream; every other role counts as the
// R-stream. The zero value is ready to use.
type Leads struct {
	at map[leadKey]arrivals
}

type leadKey struct{ task, session int }

// arrivals holds one session's first arrival time per stream.
type arrivals struct {
	a, r         int64
	haveA, haveR bool
}

// Event implements Observer, recording session-boundary arrivals.
func (l *Leads) Event(e *Event) {
	if e.Kind != EvSession {
		return
	}
	k := leadKey{e.Task, e.Session}
	at := l.at[k]
	if e.Role == RoleA {
		if at.haveA {
			return
		}
		at.a, at.haveA = e.Time, true
	} else {
		if at.haveR {
			return
		}
		at.r, at.haveR = e.Time, true
	}
	if l.at == nil {
		l.at = make(map[leadKey]arrivals)
	}
	l.at[k] = at
}

// Series returns the lead of every session both streams reached, ordered
// by task and then session. Sessions where either stream left no record
// (e.g. after a recovery fast-forwards the A-stream) are skipped.
func (l *Leads) Series() []Lead {
	var keys []leadKey
	for k, at := range l.at {
		if at.haveA && at.haveR {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].session < keys[j].session
	})
	out := make([]Lead, len(keys))
	for i, k := range keys {
		at := l.at[k]
		out[i] = Lead{Task: k.task, Session: k.session, Cycles: at.r - at.a}
	}
	return out
}

// Mean returns the average lead over Series in cycles, or 0 when no
// session was reached by both streams.
func (l *Leads) Mean() float64 {
	series := l.Series()
	if len(series) == 0 {
		return 0
	}
	var sum int64
	for _, s := range series {
		sum += s.Cycles
	}
	return float64(sum) / float64(len(series))
}
