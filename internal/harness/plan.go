package harness

import (
	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/runspec"
)

// A Figure couples a plan — the RunSpecs a figure's data requires — with
// its renderer. Plans are pure declarations: executing the union of every
// requested figure's plan up front lets the scheduler deduplicate shared
// configurations (the single-mode baselines, the four-policy sweeps) and
// run them in parallel before any rendering starts.
type Figure struct {
	// Tag is the stable identifier used by RunFigures and the
	// cmd/experiments flags.
	Tag string
	// Plan returns every spec the renderer's data needs. Nil for static
	// tables and for the lead study, whose runs must be observed.
	Plan func(*Session) []runspec.RunSpec
	// Render draws the figure from memoized results.
	Render func(*Session) error
}

// Figures returns every table, figure, and extension study in paper
// render order.
func Figures() []Figure {
	return []Figure{
		{Tag: "table1", Render: (*Session).Table1},
		{Tag: "table2", Render: (*Session).Table2},
		{Tag: "fig1", Plan: (*Session).planFig1, Render: (*Session).Fig1},
		{Tag: "fig4", Plan: (*Session).planFig4, Render: (*Session).Fig4},
		{Tag: "fig5", Plan: (*Session).planFig5, Render: (*Session).Fig5},
		{Tag: "fig6", Plan: (*Session).planFig6, Render: (*Session).Fig6},
		{Tag: "fig7", Plan: (*Session).planFig7, Render: (*Session).Fig7},
		{Tag: "fig9", Plan: (*Session).planFig9, Render: (*Session).Fig9},
		{Tag: "fig10", Plan: (*Session).planFig10, Render: (*Session).Fig10},
		{Tag: "adaptive", Plan: (*Session).planExtAdaptive, Render: (*Session).ExtAdaptive},
		{Tag: "forward", Plan: (*Session).planExtForward, Render: (*Session).ExtForward},
		{Tag: "sensitivity", Plan: (*Session).planExtSensitivity, Render: (*Session).ExtSensitivity},
		// ExtLeads measures each run with an obs.Leads observer, and memo
		// and cache hits are not observed, so it has no plan and
		// simulates during rendering.
		{Tag: "leads", Render: (*Session).ExtLeads},
		{Tag: "banks", Plan: (*Session).planExtBanks, Render: (*Session).ExtBanks},
		{Tag: "synth", Plan: (*Session).planExtSynth, Render: (*Session).ExtSynth},
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

func (s *Session) planFig1() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		for _, cmps := range s.cfg.CMPCounts {
			specs = append(specs,
				s.spec(name, core.ModeSingle, 0, cmps, false, false),
				s.spec(name, core.ModeDouble, 0, cmps, false, false))
		}
	}
	return specs
}

func (s *Session) planFig4() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		specs = append(specs, s.spec(name, core.ModeSequential, 0, 1, false, false))
		for _, cmps := range s.cfg.CMPCounts {
			specs = append(specs, s.spec(name, core.ModeSingle, 0, cmps, false, false))
		}
	}
	return specs
}

func (s *Session) planFig5() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		for _, cmps := range s.cfg.CMPCounts {
			specs = append(specs,
				s.spec(name, core.ModeSingle, 0, cmps, false, false),
				s.spec(name, core.ModeDouble, 0, cmps, false, false))
			for _, ar := range core.ARSyncs {
				specs = append(specs, s.spec(name, core.ModeSlipstream, ar, cmps, false, false))
			}
		}
	}
	return specs
}

func (s *Session) planFig6() []runspec.RunSpec {
	cmps := s.MaxCMPs()
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		specs = append(specs,
			s.spec(name, core.ModeSingle, 0, cmps, false, false),
			s.spec(name, core.ModeDouble, 0, cmps, false, false))
		// The "best" policy's run is one of the four swept here.
		for _, ar := range core.ARSyncs {
			specs = append(specs, s.spec(name, core.ModeSlipstream, ar, cmps, false, false))
		}
	}
	return specs
}

func (s *Session) planFig7() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		for _, ar := range core.ARSyncs {
			specs = append(specs, s.spec(name, core.ModeSlipstream, ar, cmps, false, false))
		}
	}
	return specs
}

func (s *Session) planFig9() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range fig9Kernels() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		specs = append(specs, s.spec(name, core.ModeSlipstream, core.OneTokenGlobal, cmps, true, true))
	}
	return specs
}

func (s *Session) planFig10() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range fig9Kernels() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		specs = append(specs,
			s.spec(name, core.ModeSingle, 0, cmps, false, false),
			s.spec(name, core.ModeDouble, 0, cmps, false, false),
			s.spec(name, core.ModeSlipstream, core.OneTokenGlobal, cmps, false, false),
			s.spec(name, core.ModeSlipstream, core.OneTokenGlobal, cmps, true, false),
			s.spec(name, core.ModeSlipstream, core.OneTokenGlobal, cmps, true, true))
	}
	return specs
}

func (s *Session) planExtAdaptive() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		for _, ar := range core.ARSyncs {
			specs = append(specs, s.spec(name, core.ModeSlipstream, ar, cmps, false, false))
		}
		specs = append(specs, s.adaptiveSpec(name, cmps))
	}
	return specs
}

// adaptiveSpec is the dynamic-policy run of the ExtAdaptive study.
func (s *Session) adaptiveSpec(kernel string, cmps int) runspec.RunSpec {
	sp := s.spec(kernel, core.ModeSlipstream, core.OneTokenLocal, cmps, false, false)
	sp.AdaptiveARSync = true
	return sp
}

func (s *Session) planExtForward() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range kernels.Names() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		specs = append(specs,
			s.spec(name, core.ModeSlipstream, core.ZeroTokenLocal, cmps, false, false),
			s.forwardSpec(name, cmps))
	}
	return specs
}

// forwardSpec is the forwarding-queue run of the ExtForward study.
func (s *Session) forwardSpec(kernel string, cmps int) runspec.RunSpec {
	sp := s.spec(kernel, core.ModeSlipstream, core.ZeroTokenLocal, cmps, false, false)
	sp.ForwardQueue = true
	return sp
}

// sensitivitySpec is one machine-override run of the ExtSensitivity sweep.
func (s *Session) sensitivitySpec(kernel string, mode core.Mode, ar core.ARSync, netTime int64) runspec.RunSpec {
	sp := s.spec(kernel, mode, ar, s.MaxCMPs(), false, false)
	m := memsys.DefaultParams(sp.CMPs)
	m.NetTime = netTime
	sp.Machine = m
	return sp
}

// extSensitivityKernels and extSensitivityNets fix the ExtSensitivity
// sweep so its plan and its renderer stay in lockstep.
func extSensitivityKernels() []string { return []string{"SOR", "CG", "MG"} }
func extSensitivityNets() []int64     { return []int64{25, 50, 100, 200} }

func (s *Session) planExtSensitivity() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range extSensitivityKernels() {
		for _, nt := range extSensitivityNets() {
			specs = append(specs, s.sensitivitySpec(name, core.ModeSingle, 0, nt))
			for _, ar := range core.ARSyncs {
				specs = append(specs, s.sensitivitySpec(name, core.ModeSlipstream, ar, nt))
			}
		}
	}
	return specs
}

// bankSpec is one machine-override run of the ExtBanks sweep.
func (s *Session) bankSpec(kernel string, mode core.Mode, ar core.ARSync, cmps, banks int) runspec.RunSpec {
	sp := s.spec(kernel, mode, ar, cmps, false, false)
	m := memsys.DefaultParams(cmps)
	m.DCBanks = banks
	sp.Machine = m
	return sp
}

// extBanksKernels and extBanksCounts fix the ExtBanks sweep.
func extBanksKernels() []string { return []string{"SOR", "OCEAN", "CG", "MG", "SP", "WATER-NS"} }
func extBanksCounts() []int     { return []int{1, 2, 4} }

func (s *Session) planExtBanks() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, name := range extBanksKernels() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		for _, banks := range extBanksCounts() {
			specs = append(specs, s.bankSpec(name, core.ModeSingle, 0, cmps, banks))
			for _, ar := range core.ARSyncs {
				specs = append(specs, s.bankSpec(name, core.ModeSlipstream, ar, cmps, banks))
			}
		}
	}
	return specs
}
