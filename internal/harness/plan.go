package harness

import (
	"io"

	"slipstream/internal/runspec"
)

// A Figure is one table, figure, or extension study. Its renderer is the
// only declaration of the runs it needs: it asks for each one through
// Session.result, so rendering it against a recording session (see plan)
// yields its run plan.
type Figure struct {
	// Tag is the stable identifier used by RunFigures and, as a flag
	// name, by cmd/experiments.
	Tag string
	// Doc is the one-line description cmd/experiments shows for the flag.
	Doc string
	// Render draws the figure.
	Render func(*Session) error
}

// Figures returns every table, figure, and extension study in paper
// render order.
func Figures() []Figure {
	return []Figure{
		{"table1", "Table 1: machine parameters", (*Session).Table1},
		{"table2", "Table 2: benchmarks and sizes", (*Session).Table2},
		{"fig1", "Figure 1: double vs single", (*Session).Fig1},
		{"fig4", "Figure 4: single-mode scalability", (*Session).Fig4},
		{"fig5", "Figure 5: slipstream and double vs single", (*Session).Fig5},
		{"fig6", "Figure 6: execution time breakdown", (*Session).Fig6},
		{"fig7", "Figure 7: request classification", (*Session).Fig7},
		{"fig9", "Figure 9: transparent load breakdown", (*Session).Fig9},
		{"fig10", "Figure 10: transparent loads + self-invalidation", (*Session).Fig10},
		{"adaptive", "extension: dynamic A-R policy selection (paper Section 6)", (*Session).ExtAdaptive},
		{"forward", "extension: A-to-R address forwarding queue (paper Section 6)", (*Session).ExtForward},
		{"sensitivity", "extension: slipstream benefit vs network latency", (*Session).ExtSensitivity},
		{"leads", "extension: A-stream lead analysis per policy", (*Session).ExtLeads},
		{"banks", "extension: directory-controller banking sensitivity", (*Session).ExtBanks},
		{"synth", "extension: synthetic sharing-pattern sweep (SYNTH generator)", (*Session).ExtSynth},
	}
}

// Tags lists the figure tags in render order.
func Tags() []string {
	figs := Figures()
	tags := make([]string, len(figs))
	for i, f := range figs {
		tags[i] = f.Tag
	}
	return tags
}

// plan returns the specs render asks for, in the order it asks for them.
// It runs render once against a recording copy of the session, whose
// result appends each spec and answers with an empty Result instead of
// simulating. The copy writes to io.Discard and has no progress writer,
// cache, or observers, so s is left untouched.
//
// Renderers tolerate empty results. A spec chosen from another run's
// numbers (Figure 6's best policy) is recorded as whatever the empty
// results pick; if the real render picks another, result simulates it
// inline. The lead study observes its own runs and records none.
func (s *Session) plan(render func(*Session) error) []runspec.RunSpec {
	cfg := s.cfg
	cfg.Out, cfg.Progress, cfg.Cache, cfg.Observe = io.Discard, nil, nil, false
	rec := NewSession(cfg)
	rec.recording = true
	// Only static inputs can fail here (a bad SYNTH axis); the real render
	// reports the error once the figures before it have printed.
	_ = render(rec)
	return rec.planned
}
