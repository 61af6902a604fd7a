package harness

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
)

// SynthAxis fixes one knob sweep of the ExtSynth study: the named SYNTH
// parameter is moved through Values while every other knob stays at its
// default, so each row isolates one sharing-pattern axis.
type SynthAxis struct {
	Param  string
	Values []float64
}

// synthAxes fixes the ExtSynth sweep. The middle value of each axis sits
// at (or near) the SYNTH default; the ends stress the axis.
func synthAxes() []SynthAxis {
	return []SynthAxis{
		{"pc", []float64{0, 1, 4}},
		{"mig", []float64{0, 0.2, 0.5}},
		{"fs", []float64{0, 0.15, 0.4}},
		{"wr", []float64{0.1, 0.35, 0.8}},
		{"sync", []float64{0.005, 0.02, 0.1}},
		{"lock", []float64{0, 0.5, 1}},
	}
}

// synthSpec is one run of the ExtSynth sweep: SYNTH with a single knob
// moved off its default.
func (s *Session) synthSpec(param string, v float64, mode core.Mode, ar core.ARSync, tl, si bool) (runspec.RunSpec, error) {
	p, err := kernels.MakeParams(map[string]float64{param: v})
	if err != nil {
		return runspec.RunSpec{}, fmt.Errorf("synth sweep %s=%v: %w", param, v, err)
	}
	sp := s.spec("SYNTH", mode, ar, s.MaxCMPs(), tl, si)
	sp.Params = p
	return sp.Normalize(), nil
}

// SynthRow records one sweep point: cycle counts per mode and the
// A-stream recovery counts of the slipstream runs (the deviation-check
// kills, the paper's measure of how far speculation strays).
type SynthRow struct {
	Param          string
	Value          float64
	Single         int64
	Slip           int64
	SlipRecoveries int
	TLSI           int64
	TLSIRecoveries int
}

// ExtSynthData sweeps each synthetic sharing-pattern axis one knob at a
// time and measures how the slipstream benefit tracks it.
func (s *Session) ExtSynthData(axes []SynthAxis) ([]SynthRow, error) {
	// Each sweep point runs under the single-mode baseline, plain
	// slipstream, and slipstream with transparent loads + self-invalidation.
	modes := []struct {
		mode   core.Mode
		ar     core.ARSync
		tl, si bool
	}{
		{core.ModeSingle, 0, false, false},
		{core.ModeSlipstream, core.OneTokenLocal, false, false},
		{core.ModeSlipstream, core.OneTokenLocal, true, true},
	}
	var out []SynthRow
	for _, ax := range axes {
		for _, v := range ax.Values {
			row := SynthRow{Param: ax.Param, Value: v}
			for i, mk := range modes {
				sp, err := s.synthSpec(ax.Param, v, mk.mode, mk.ar, mk.tl, mk.si)
				if err != nil {
					return nil, err
				}
				res, err := s.result(sp)
				if err != nil {
					return nil, err
				}
				switch i {
				case 0:
					row.Single = res.Cycles
				case 1:
					row.Slip, row.SlipRecoveries = res.Cycles, res.Recoveries
				case 2:
					row.TLSI, row.TLSIRecoveries = res.Cycles, res.Recoveries
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// ExtSynth renders the synthetic sharing-pattern sweep: how execution
// time and A-stream recoveries respond as each axis — producer-consumer
// degree, migratory fraction, false sharing, write mix, sync density, and
// lock share — moves, under single mode, slipstream, and slipstream with
// transparent loads + self-invalidation.
func (s *Session) ExtSynth() error {
	data, err := s.ExtSynthData(synthAxes())
	if err != nil {
		return err
	}
	s.section("Extension: synthetic sharing-pattern sweep (SYNTH generator)")
	fmt.Fprintln(s.cfg.Out, "one knob moved per row, all others at SYNTH defaults; slip policy L1")
	t := &table{header: []string{"knob", "value", "single", "slip", "recov", "slip+tl+si", "recov", "speedup"}}
	prev := ""
	for _, row := range data {
		knob := row.Param
		if knob == prev {
			knob = ""
		} else {
			prev = knob
		}
		t.add(knob, trimFloat(row.Value),
			fmt.Sprint(row.Single),
			fmt.Sprint(row.Slip), fmt.Sprint(row.SlipRecoveries),
			fmt.Sprint(row.TLSI), fmt.Sprint(row.TLSIRecoveries),
			f2(float64(row.Single)/float64(row.TLSI)))
	}
	t.render(s.cfg.Out)
	return nil
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }
