package harness

import (
	"fmt"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/memsys"
	"slipstream/internal/stats"
)

// speedup returns base/x as a ratio (>1 means x is faster than base).
func speedup(base, x *core.Result) float64 {
	return float64(base.Cycles) / float64(x.Cycles)
}

// Table1 prints the machine parameters.
func (s *Session) Table1() error {
	s.section("Table 1: machine parameters")
	p := memsys.DefaultParams(s.MaxCMPs())
	t := &table{header: []string{"parameter", "value", "description"}}
	t.add("CPU", "1 GHz, 1 cycle/op", "MIPSY-like in-order CMP cores, 2 per node")
	t.add("L1 (I/D)", fmt.Sprintf("%d KB, %d-way, %d-cycle hit", p.L1Size>>10, p.L1Assoc, p.L1Hit), "per processor")
	t.add("L2 (unified)", fmt.Sprintf("%d KB, %d-way, %d-cycle hit", p.L2Size>>10, p.L2Assoc, p.L2Hit), "shared per CMP node")
	t.add("BusTime", fmt.Sprint(p.BusTime), "transit, L2 to directory controller (DC)")
	t.add("PILocalDCTime", fmt.Sprint(p.PILocalDCTime), "occupancy of DC on local miss")
	t.add("PIRemoteDCTime", fmt.Sprint(p.PIRemoteDCTime), "occupancy of local DC on outgoing miss")
	t.add("NIRemoteDCTime", fmt.Sprint(p.NIRemoteDCTime), "occupancy of local DC on incoming miss")
	t.add("NILocalDCTime", fmt.Sprint(p.NILocalDCTime), "occupancy of remote DC on remote miss")
	t.add("NetTime", fmt.Sprint(p.NetTime), "transit, interconnection network")
	t.add("MemTime", fmt.Sprint(p.MemTime), "latency, DC to local memory")
	t.add("local miss", fmt.Sprint(p.LocalMissLatency()), "unloaded cycles (paper: 170)")
	t.add("remote miss", fmt.Sprint(p.RemoteMissLatency()), "unloaded cycles (paper: 290)")
	t.render(s.cfg.Out)
	return nil
}

// Table2 prints the benchmarks and the data sizes of the active preset.
func (s *Session) Table2() error {
	s.section(fmt.Sprintf("Table 2: benchmarks and data sizes (preset: %s)", s.cfg.Size))
	paper := map[string]string{
		"FFT": "64K complex", "OCEAN": "258x258", "WATER-NS": "512 molecules",
		"WATER-SP": "512 molecules", "SOR": "1024x1024", "LU": "512x512",
		"CG": "1400", "MG": "32x32x32", "SP": "16x16x16",
	}
	t := &table{header: []string{"application", "paper size", "this preset"}}
	for _, name := range kernels.Names() {
		ours, err := kernels.SizeLabel(name, s.cfg.Size)
		if err != nil {
			return err
		}
		t.add(name, paper[name], ours)
	}
	t.render(s.cfg.Out)
	return nil
}

// Fig1Data returns, per kernel, the double-vs-single speedup at each CMP
// count.
func (s *Session) Fig1Data() (map[string][]float64, error) {
	out := make(map[string][]float64)
	for _, name := range kernels.Names() {
		for _, cmps := range s.cfg.CMPCounts {
			sg, err := s.single(name, cmps)
			if err != nil {
				return nil, err
			}
			db, err := s.double(name, cmps)
			if err != nil {
				return nil, err
			}
			out[name] = append(out[name], speedup(sg, db))
		}
	}
	return out, nil
}

// Fig1 prints the double-vs-single comparison.
func (s *Session) Fig1() error {
	data, err := s.Fig1Data()
	if err != nil {
		return err
	}
	s.section("Figure 1: speedup of two tasks per CMP (double) vs one task per CMP (single)")
	t := &table{header: append([]string{"benchmark"}, cmpHeaders(s.cfg.CMPCounts)...)}
	for _, name := range kernels.Names() {
		row := []string{name}
		for _, v := range data[name] {
			row = append(row, f2(v))
		}
		t.add(row...)
	}
	t.render(s.cfg.Out)
	fmt.Fprintln(s.cfg.Out, "(>1.00: doubling task count helps; <1.00: it hurts — the scalability limit)")
	return nil
}

// Fig4Data returns, per kernel, the single-mode speedup over sequential at
// each CMP count.
func (s *Session) Fig4Data() (map[string][]float64, error) {
	out := make(map[string][]float64)
	for _, name := range kernels.Names() {
		seq, err := s.sequential(name)
		if err != nil {
			return nil, err
		}
		for _, cmps := range s.cfg.CMPCounts {
			sg, err := s.single(name, cmps)
			if err != nil {
				return nil, err
			}
			out[name] = append(out[name], speedup(seq, sg))
		}
	}
	return out, nil
}

// Fig4 prints single-mode scalability.
func (s *Session) Fig4() error {
	data, err := s.Fig4Data()
	if err != nil {
		return err
	}
	s.section("Figure 4: speedup of single mode over sequential execution")
	t := &table{header: append([]string{"benchmark"}, cmpHeaders(s.cfg.CMPCounts)...)}
	maxV := 0.0
	for _, name := range kernels.Names() {
		for _, v := range data[name] {
			if v > maxV {
				maxV = v
			}
		}
	}
	for _, name := range kernels.Names() {
		row := []string{name}
		for _, v := range data[name] {
			row = append(row, f1(v))
		}
		t.add(append(row, bar(data[name][len(data[name])-1], maxV, 24))...)
	}
	t.header = append(t.header, "scaling")
	t.render(s.cfg.Out)
	return nil
}

// Fig5Series is one kernel's Figure 5 panel: speedups relative to single
// mode at each CMP count.
type Fig5Series struct {
	Kernel string
	CMPs   []int
	// Modes maps a label (double, L1, L0, G1, G0) to per-CMP speedups.
	Modes map[string][]float64
}

// Fig5Labels lists the series of each Figure 5 panel in render order.
var Fig5Labels = []string{"double", "L1", "L0", "G1", "G0"}

// Fig5Data computes every Figure 5 panel.
func (s *Session) Fig5Data() ([]Fig5Series, error) {
	var out []Fig5Series
	for _, name := range kernels.Names() {
		ser := Fig5Series{Kernel: name, CMPs: s.cfg.CMPCounts, Modes: make(map[string][]float64)}
		for _, cmps := range s.cfg.CMPCounts {
			sg, err := s.single(name, cmps)
			if err != nil {
				return nil, err
			}
			db, err := s.double(name, cmps)
			if err != nil {
				return nil, err
			}
			ser.Modes["double"] = append(ser.Modes["double"], speedup(sg, db))
			for _, ar := range core.ARSyncs {
				res, err := s.slip(name, ar, cmps, false, false)
				if err != nil {
					return nil, err
				}
				ser.Modes[ar.String()] = append(ser.Modes[ar.String()], speedup(sg, res))
			}
		}
		out = append(out, ser)
	}
	return out, nil
}

// Fig5 prints per-kernel panels of slipstream and double speedups relative
// to single mode.
func (s *Session) Fig5() error {
	data, err := s.Fig5Data()
	if err != nil {
		return err
	}
	s.section("Figure 5: speedup of slipstream and double modes, relative to single mode")
	for _, ser := range data {
		fmt.Fprintf(s.cfg.Out, "\n%s\n", ser.Kernel)
		t := &table{header: append([]string{"mode"}, cmpHeaders(ser.CMPs)...)}
		for _, label := range Fig5Labels {
			row := []string{label}
			for _, v := range ser.Modes[label] {
				row = append(row, f2(v))
			}
			t.add(row...)
		}
		t.render(s.cfg.Out)
	}
	return nil
}

// Fig6Row is one benchmark's execution-time breakdown set, each breakdown
// normalized so that single-mode total = 100.
type Fig6Row struct {
	Kernel string
	BestAR core.ARSync
	Single stats.Breakdown
	Double stats.Breakdown
	R      stats.Breakdown
	A      stats.Breakdown
	// Norm is the single-mode average task time (the 100% reference).
	Norm float64
}

// Fig6Data computes the breakdowns at the largest machine size using each
// kernel's best A-R policy.
func (s *Session) Fig6Data() ([]Fig6Row, error) {
	cmps := s.MaxCMPs()
	var out []Fig6Row
	for _, name := range kernels.Names() {
		sg, err := s.single(name, cmps)
		if err != nil {
			return nil, err
		}
		db, err := s.double(name, cmps)
		if err != nil {
			return nil, err
		}
		best, err := s.bestARSync(name, cmps)
		if err != nil {
			return nil, err
		}
		sl, err := s.slip(name, best, cmps, false, false)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Row{
			Kernel: name,
			BestAR: best,
			Single: sg.AvgTask(),
			Double: db.AvgTask(),
			R:      sl.AvgTask(),
			A:      sl.AvgATask(),
			Norm:   float64(sg.AvgTask().Total()),
		})
	}
	return out, nil
}

// Fig6 prints the execution-time breakdowns.
func (s *Session) Fig6() error {
	data, err := s.Fig6Data()
	if err != nil {
		return err
	}
	s.section(fmt.Sprintf("Figure 6: execution time breakdown at %d CMPs, relative to single mode (=100)", s.MaxCMPs()))
	fmt.Fprintln(s.cfg.Out, "bars: B=busy S=stall a=A-R sync b=barrier l=lock")
	t := &table{header: []string{"benchmark", "cfg", "total", "busy", "stall", "A-R", "barrier", "lock", "profile"}}
	for _, row := range data {
		for _, entry := range []struct {
			label string
			bd    stats.Breakdown
		}{
			{"single", row.Single},
			{"double", row.Double},
			{"R(" + row.BestAR.String() + ")", row.R},
			{"A(" + row.BestAR.String() + ")", row.A},
		} {
			n := func(v int64) float64 { return 100 * float64(v) / row.Norm }
			bd := entry.bd
			t.add(row.Kernel, entry.label,
				f1(n(bd.Total())), f1(n(bd.Busy)), f1(n(bd.MemStall)),
				f1(n(bd.ARSync)), f1(n(bd.Barrier)), f1(n(bd.Lock)),
				stacked(
					[]float64{n(bd.Busy), n(bd.MemStall), n(bd.ARSync), n(bd.Barrier), n(bd.Lock)},
					[]rune{'B', 'S', 'a', 'b', 'l'}, 100, 25))
		}
	}
	t.render(s.cfg.Out)
	return nil
}

// Fig7Row is the shared-data request classification for one kernel under
// one A-R policy (slipstream prefetch-only at the largest machine).
type Fig7Row struct {
	Kernel string
	AR     core.ARSync
	Req    stats.ReqBreakdown
}

// Fig7Data computes the request breakdown for every kernel and policy.
func (s *Session) Fig7Data() ([]Fig7Row, error) {
	cmps := s.MaxCMPs()
	var out []Fig7Row
	for _, name := range kernels.Names() {
		n := cmps
		if name == "FFT" {
			n = s.fftCMPs()
		}
		for _, ar := range core.ARSyncs {
			res, err := s.slip(name, ar, n, false, false)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Row{Kernel: name, AR: ar, Req: res.Req})
		}
	}
	return out, nil
}

// Fig7 prints the request classification tables (reads and exclusives).
func (s *Session) Fig7() error {
	data, err := s.Fig7Data()
	if err != nil {
		return err
	}
	s.section("Figure 7: breakdown of memory requests for shared data (% of requests)")
	classes := []stats.ReqClass{stats.ATimely, stats.ALate, stats.AOnly, stats.RTimely, stats.RLate, stats.ROnly}
	for _, kind := range []string{"read requests", "exclusive requests"} {
		fmt.Fprintf(s.cfg.Out, "\n%s\n", kind)
		hdr := []string{"benchmark", "sync"}
		for _, c := range classes {
			hdr = append(hdr, c.String())
		}
		t := &table{header: hdr}
		for _, row := range data {
			cells := []string{row.Kernel, row.AR.String()}
			for _, c := range classes {
				if kind == "read requests" {
					cells = append(cells, pct(row.Req.ReadPct(c)))
				} else {
					cells = append(cells, pct(row.Req.ExclusivePct(c)))
				}
			}
			t.add(cells...)
		}
		t.render(s.cfg.Out)
	}
	return nil
}

// Fig9Row is one kernel's transparent-load breakdown (G1 + transparent
// loads + SI at the Section 4 machine size).
type Fig9Row struct {
	Kernel string
	TL     stats.TLStats
}

// fig9Kernels are the benchmarks of the Section 4 study (LU and Water-SP
// are excluded, as in the paper, for their negligible stall time).
func fig9Kernels() []string {
	return []string{"CG", "FFT", "MG", "OCEAN", "SOR", "SP", "WATER-NS"}
}

// Fig9Data computes the transparent-load statistics.
func (s *Session) Fig9Data() ([]Fig9Row, error) {
	var out []Fig9Row
	for _, name := range fig9Kernels() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		res, err := s.slip(name, core.OneTokenGlobal, cmps, true, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig9Row{Kernel: name, TL: res.TL})
	}
	return out, nil
}

// Fig9 prints the transparent-load breakdown.
func (s *Session) Fig9() error {
	data, err := s.Fig9Data()
	if err != nil {
		return err
	}
	s.section("Figure 9: transparent load breakdown (one-token global, % of A-stream read requests)")
	t := &table{header: []string{"benchmark", "issued transparent", "transparent replies", "upgraded"}}
	for _, row := range data {
		issued := row.TL.IssuedPct()
		tr := issued * row.TL.TransparentReplyPct() / 100
		t.add(row.Kernel, pct(issued), pct(tr), pct(issued-tr))
	}
	t.render(s.cfg.Out)
	return nil
}

// Fig10Row is one kernel's Section 4 speedup set, relative to the best of
// single and double mode.
type Fig10Row struct {
	Kernel   string
	CMPs     int
	Prefetch float64 // slipstream prefetch-only (G1)
	TL       float64 // + transparent loads
	TLSI     float64 // + transparent loads + self-invalidation
}

// Fig10Data computes the Section 4 comparison.
func (s *Session) Fig10Data() ([]Fig10Row, error) {
	var out []Fig10Row
	for _, name := range fig9Kernels() {
		cmps := s.MaxCMPs()
		if name == "FFT" {
			cmps = s.fftCMPs()
		}
		sg, err := s.single(name, cmps)
		if err != nil {
			return nil, err
		}
		db, err := s.double(name, cmps)
		if err != nil {
			return nil, err
		}
		base := sg
		if db.Cycles < base.Cycles {
			base = db
		}
		pref, err := s.slip(name, core.OneTokenGlobal, cmps, false, false)
		if err != nil {
			return nil, err
		}
		tl, err := s.slip(name, core.OneTokenGlobal, cmps, true, false)
		if err != nil {
			return nil, err
		}
		tlsi, err := s.slip(name, core.OneTokenGlobal, cmps, true, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Row{
			Kernel:   name,
			CMPs:     cmps,
			Prefetch: speedup(base, pref),
			TL:       speedup(base, tl),
			TLSI:     speedup(base, tlsi),
		})
	}
	return out, nil
}

// Fig10 prints the transparent-load and self-invalidation comparison.
func (s *Session) Fig10() error {
	data, err := s.Fig10Data()
	if err != nil {
		return err
	}
	s.section("Figure 10: performance with transparent loads and self-invalidation")
	fmt.Fprintln(s.cfg.Out, "speedup relative to the best of single and double modes (one-token global)")
	t := &table{header: []string{"benchmark", "CMPs", "prefetch", "+transparent", "+transparent+SI"}}
	for _, row := range data {
		t.add(row.Kernel, fmt.Sprint(row.CMPs), f2(row.Prefetch), f2(row.TL), f2(row.TLSI))
	}
	t.render(s.cfg.Out)
	return nil
}

func cmpHeaders(cmps []int) []string {
	out := make([]string, len(cmps))
	for i, c := range cmps {
		out[i] = fmt.Sprintf("%d CMPs", c)
	}
	return out
}
