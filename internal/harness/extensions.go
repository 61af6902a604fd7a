package harness

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/runspec"
)

// AdaptiveRow is one kernel's comparison of the four fixed A-R policies
// against the dynamic controller (the paper's Section 6 future work).
type AdaptiveRow struct {
	Kernel   string
	CMPs     int
	Fixed    map[core.ARSync]int64 // cycles per fixed policy
	Adaptive int64                 // cycles with dynamic switching
	Switches int
	Final    []core.ARSync
}

// ExtAdaptiveData compares fixed and adaptive A-R synchronization for
// every benchmark at the largest machine size.
func (s *Session) ExtAdaptiveData() ([]AdaptiveRow, error) {
	var out []AdaptiveRow
	for _, name := range kernels.Names() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		row := AdaptiveRow{Kernel: name, CMPs: cmps, Fixed: map[core.ARSync]int64{}}
		for _, ar := range core.ARSyncs {
			res, err := s.slip(name, ar, cmps, false, false)
			if err != nil {
				return nil, err
			}
			row.Fixed[ar] = res.Cycles
		}
		res, err := s.result(s.adaptiveSpec(name, cmps))
		if err != nil {
			return nil, err
		}
		row.Adaptive = res.Cycles
		row.Switches = res.PolicySwitches
		row.Final = res.FinalPolicies
		out = append(out, row)
	}
	return out, nil
}

// adaptiveSpec is the dynamic-policy run of the ExtAdaptive study.
func (s *Session) adaptiveSpec(kernel string, cmps int) runspec.RunSpec {
	sp := s.spec(kernel, core.ModeSlipstream, core.OneTokenLocal, cmps, false, false)
	sp.AdaptiveARSync = true
	return sp
}

// ExtAdaptive renders the adaptive-vs-fixed comparison (not a figure of
// the paper; it implements the dynamic scheme selection its Section 6
// proposes as future work).
func (s *Session) ExtAdaptive() error {
	data, err := s.ExtAdaptiveData()
	if err != nil {
		return err
	}
	s.section("Extension (paper Section 6): dynamic A-R synchronization selection")
	fmt.Fprintln(s.cfg.Out, "cycles relative to the best fixed policy (lower is better; 1.00 = matched best)")
	t := &table{header: []string{"benchmark", "CMPs", "best fixed", "worst fixed", "adaptive", "switches", "final policies"}}
	for _, row := range data {
		// Iterate policies in their fixed declaration order, not map order:
		// ties on cycle counts must always crown the same "best" policy.
		best, worst := int64(1<<62), int64(0)
		var bestAR core.ARSync
		for _, ar := range core.ARSyncs {
			c, ok := row.Fixed[ar]
			if !ok {
				continue
			}
			if c < best {
				best, bestAR = c, ar
			}
			if c > worst {
				worst = c
			}
		}
		finals := ""
		for i, p := range row.Final {
			if i > 0 {
				finals += " "
			}
			finals += p.String()
		}
		if len(row.Final) > 6 {
			finals = fmt.Sprintf("%s ... (%d pairs)", row.Final[0], len(row.Final))
		}
		t.add(row.Kernel, fmt.Sprint(row.CMPs),
			fmt.Sprintf("%s (1.00)", bestAR),
			f2(float64(worst)/float64(best)),
			f2(float64(row.Adaptive)/float64(best)),
			fmt.Sprint(row.Switches), finals)
	}
	t.render(s.cfg.Out)
	return nil
}

// ForwardRow compares slipstream with and without the Section 6
// address-forwarding queue.
type ForwardRow struct {
	Kernel   string
	CMPs     int
	Off, On  int64 // cycles
	L1Pushes int64
}

// ExtForwardData measures the forwarding-queue extension per kernel.
func (s *Session) ExtForwardData() ([]ForwardRow, error) {
	var out []ForwardRow
	for _, name := range kernels.Names() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		off, err := s.slip(name, core.ZeroTokenLocal, cmps, false, false)
		if err != nil {
			return nil, err
		}
		on, err := s.result(s.forwardSpec(name, cmps))
		if err != nil {
			return nil, err
		}
		out = append(out, ForwardRow{
			Kernel: name, CMPs: cmps,
			Off: off.Cycles, On: on.Cycles, L1Pushes: on.Mem.L1Pushes,
		})
	}
	return out, nil
}

// forwardSpec is the forwarding-queue run of the ExtForward study.
func (s *Session) forwardSpec(kernel string, cmps int) runspec.RunSpec {
	sp := s.spec(kernel, core.ModeSlipstream, core.ZeroTokenLocal, cmps, false, false)
	sp.ForwardQueue = true
	return sp
}

// ExtForward renders the forwarding-queue comparison.
func (s *Session) ExtForward() error {
	data, err := s.ExtForwardData()
	if err != nil {
		return err
	}
	s.section("Extension (paper Section 6): explicit A-to-R access-pattern forwarding")
	fmt.Fprintln(s.cfg.Out, "slipstream (L0) with a 32-entry address queue driving L2-to-L1 pushes")
	t := &table{header: []string{"benchmark", "CMPs", "without", "with", "speedup", "L1 pushes"}}
	for _, row := range data {
		t.add(row.Kernel, fmt.Sprint(row.CMPs),
			fmt.Sprint(row.Off), fmt.Sprint(row.On),
			f2(float64(row.Off)/float64(row.On)), fmt.Sprint(row.L1Pushes))
	}
	t.render(s.cfg.Out)
	return nil
}

// SensitivityRow records how the slipstream-vs-single comparison shifts
// with network latency.
type SensitivityRow struct {
	Kernel  string
	NetTime int64
	Single  int64
	Slip    int64
}

// ExtSensitivityData sweeps the interconnect transit latency (Table 1's
// NetTime) and measures the best-policy slipstream speedup over single
// mode: remote latency is what the A-stream hides, so its benefit should
// grow with it.
func (s *Session) ExtSensitivityData(kernelNames []string, netTimes []int64) ([]SensitivityRow, error) {
	var out []SensitivityRow
	for _, name := range kernelNames {
		for _, nt := range netTimes {
			single, err := s.result(s.sensitivitySpec(name, core.ModeSingle, 0, nt))
			if err != nil {
				return nil, err
			}
			best := int64(1) << 62
			for _, ar := range core.ARSyncs {
				slip, err := s.result(s.sensitivitySpec(name, core.ModeSlipstream, ar, nt))
				if err != nil {
					return nil, err
				}
				if slip.Cycles < best {
					best = slip.Cycles
				}
			}
			out = append(out, SensitivityRow{Kernel: name, NetTime: nt, Single: single.Cycles, Slip: best})
		}
	}
	return out, nil
}

// sensitivitySpec is one machine-override run of the ExtSensitivity sweep.
func (s *Session) sensitivitySpec(kernel string, mode core.Mode, ar core.ARSync, netTime int64) runspec.RunSpec {
	sp := s.spec(kernel, mode, ar, s.MaxCMPs(), false, false)
	m := memsys.DefaultParams(sp.CMPs)
	m.NetTime = netTime
	sp.Machine = m
	return sp
}

// ExtSensitivity renders the network-latency sensitivity study.
func (s *Session) ExtSensitivity() error {
	data, err := s.ExtSensitivityData([]string{"SOR", "CG", "MG"}, []int64{25, 50, 100, 200})
	if err != nil {
		return err
	}
	s.section("Extension: sensitivity of slipstream benefit to network latency")
	fmt.Fprintln(s.cfg.Out, "best-policy slipstream speedup over single mode as NetTime grows (Table 1: 50)")
	t := &table{header: []string{"benchmark", "NetTime", "single cycles", "best slipstream", "speedup"}}
	for _, row := range data {
		t.add(row.Kernel, fmt.Sprint(row.NetTime),
			fmt.Sprint(row.Single), fmt.Sprint(row.Slip),
			f2(float64(row.Single)/float64(row.Slip)))
	}
	t.render(s.cfg.Out)
	return nil
}

// LeadRow summarizes the A-stream's session-boundary lead for one kernel
// and policy.
type LeadRow struct {
	Kernel   string
	AR       core.ARSync
	MeanLead float64
}

// ExtLeadsData measures, with an obs.Leads observer, how far ahead of its
// R-stream each policy lets the A-stream run — the quantity behind Figure
// 7's timely/late split. Its runs are simulated here, not planned: a memo
// or cache hit has no event stream to measure. A recording session (see
// plan) gets no rows.
func (s *Session) ExtLeadsData(kernelNames []string) ([]LeadRow, error) {
	if s.recording {
		return nil, nil
	}
	var out []LeadRow
	for _, name := range kernelNames {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		for _, ar := range core.ARSyncs {
			sp := s.spec(name, core.ModeSlipstream, ar, cmps, false, false)
			leads := &obs.Leads{}
			if _, err := sp.RunObserved(s.cfg.Audit, append(s.observersFor(sp), leads)...); err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			out = append(out, LeadRow{Kernel: name, AR: ar, MeanLead: leads.Mean()})
		}
	}
	return out, nil
}

// ExtLeads renders the lead analysis.
func (s *Session) ExtLeads() error {
	data, err := s.ExtLeadsData(kernels.Names())
	if err != nil {
		return err
	}
	s.section("Extension: A-stream lead over R-stream at session boundaries (cycles)")
	fmt.Fprintln(s.cfg.Out, "positive = A-stream arrives first; larger leads make prefetches timely (Figure 7)")
	t := &table{header: []string{"benchmark", "L1", "L0", "G1", "G0"}}
	byKernel := map[string]map[core.ARSync]float64{}
	for _, row := range data {
		if byKernel[row.Kernel] == nil {
			byKernel[row.Kernel] = map[core.ARSync]float64{}
		}
		byKernel[row.Kernel][row.AR] = row.MeanLead
	}
	for _, name := range kernels.Names() {
		m := byKernel[name]
		t.add(name,
			fmt.Sprintf("%.0f", m[core.OneTokenLocal]),
			fmt.Sprintf("%.0f", m[core.ZeroTokenLocal]),
			fmt.Sprintf("%.0f", m[core.OneTokenGlobal]),
			fmt.Sprintf("%.0f", m[core.ZeroTokenGlobal]))
	}
	t.render(s.cfg.Out)
	return nil
}

// BankRow records the effect of directory-controller banking on the
// slipstream-vs-single comparison.
type BankRow struct {
	Kernel string
	Banks  int
	Single int64
	Slip   int64 // best fixed policy
}

// ExtBanksData sweeps the number of directory-controller banks per node.
// Table 1 gives a single DC occupancy (the default, banks=1); a banked hub
// relieves the queuing that the A-stream's duplicated request traffic adds
// while leaving unloaded latencies identical, so this study bounds how
// much of slipstream's measured gap is controller serialization.
func (s *Session) ExtBanksData(kernelNames []string, bankCounts []int) ([]BankRow, error) {
	var out []BankRow
	for _, name := range kernelNames {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		for _, banks := range bankCounts {
			single, err := s.result(s.bankSpec(name, core.ModeSingle, 0, cmps, banks))
			if err != nil {
				return nil, err
			}
			best := int64(1) << 62
			for _, ar := range core.ARSyncs {
				res, err := s.result(s.bankSpec(name, core.ModeSlipstream, ar, cmps, banks))
				if err != nil {
					return nil, err
				}
				if res.Cycles < best {
					best = res.Cycles
				}
			}
			out = append(out, BankRow{Kernel: name, Banks: banks, Single: single.Cycles, Slip: best})
		}
	}
	return out, nil
}

// bankSpec is one machine-override run of the ExtBanks sweep.
func (s *Session) bankSpec(kernel string, mode core.Mode, ar core.ARSync, cmps, banks int) runspec.RunSpec {
	sp := s.spec(kernel, mode, ar, cmps, false, false)
	m := memsys.DefaultParams(cmps)
	m.DCBanks = banks
	sp.Machine = m
	return sp
}

// ExtBanks renders the directory-controller banking study.
func (s *Session) ExtBanks() error {
	data, err := s.ExtBanksData([]string{"SOR", "OCEAN", "CG", "MG", "SP", "WATER-NS"}, []int{1, 2, 4})
	if err != nil {
		return err
	}
	s.section("Extension: directory-controller banking (Table 1 default: 1 bank)")
	fmt.Fprintln(s.cfg.Out, "best-policy slipstream speedup over single mode; banking relieves only the")
	fmt.Fprintln(s.cfg.Out, "queuing added by the A-streams' duplicated traffic (unloaded latencies unchanged)")
	t := &table{header: []string{"benchmark", "banks", "single cycles", "best slipstream", "speedup"}}
	for _, row := range data {
		t.add(row.Kernel, fmt.Sprint(row.Banks),
			fmt.Sprint(row.Single), fmt.Sprint(row.Slip),
			f2(float64(row.Single)/float64(row.Slip)))
	}
	t.render(s.cfg.Out)
	return nil
}
