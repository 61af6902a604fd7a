package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"slipstream/internal/kernels"
	"slipstream/internal/stats"
)

// csvFiles lists the files WriteCSV writes, each with the function that
// computes and writes its rows.
var csvFiles = []struct {
	name  string
	write func(*Session, *csv.Writer) error
}{
	{"fig1_double_vs_single.csv", (*Session).csvFig1},
	{"fig4_single_scaling.csv", (*Session).csvFig4},
	{"fig5_slipstream_vs_single.csv", (*Session).csvFig5},
	{"fig6_breakdown.csv", (*Session).csvFig6},
	{"fig7_request_classes.csv", (*Session).csvFig7},
	{"fig9_transparent_loads.csv", (*Session).csvFig9},
	{"fig10_tl_si.csv", (*Session).csvFig10},
}

// csvData computes every CSV file's rows and discards them: rendered
// against a recording session (see plan), it yields WriteCSV's runs.
func csvData(s *Session) error {
	for _, f := range csvFiles {
		if err := f.write(s, csv.NewWriter(io.Discard)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV regenerates every figure's data and writes one CSV file per
// figure into dir (creating it if needed), for external plotting tools.
// The runs the files need are planned and executed first, so they are
// simulated on the worker pool rather than serially during data
// generation.
func (s *Session) WriteCSV(dir string) error {
	if err := s.Execute(s.plan(csvData)); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range csvFiles {
		f, err := os.Create(filepath.Join(dir, w.name))
		if err != nil {
			return err
		}
		cw := csv.NewWriter(f)
		err = w.write(s, cw)
		cw.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = cw.Error()
		}
		if err != nil {
			return fmt.Errorf("harness: writing %s: %w", w.name, err)
		}
	}
	return nil
}

func itoa(v int64) string                        { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string                      { return strconv.FormatFloat(v, 'g', 6, 64) }
func header(w *csv.Writer, cols ...string) error { return w.Write(cols) }

func (s *Session) csvFig1(w *csv.Writer) error {
	data, err := s.Fig1Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "cmps", "double_over_single"); err != nil {
		return err
	}
	for _, name := range kernels.Names() {
		for i, cmps := range s.cfg.CMPCounts {
			if err := w.Write([]string{name, strconv.Itoa(cmps), ftoa(data[name][i])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Session) csvFig4(w *csv.Writer) error {
	data, err := s.Fig4Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "cmps", "single_over_sequential"); err != nil {
		return err
	}
	for _, name := range kernels.Names() {
		for i, cmps := range s.cfg.CMPCounts {
			if err := w.Write([]string{name, strconv.Itoa(cmps), ftoa(data[name][i])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Session) csvFig5(w *csv.Writer) error {
	data, err := s.Fig5Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "mode", "cmps", "speedup_over_single"); err != nil {
		return err
	}
	for _, ser := range data {
		for _, label := range Fig5Labels {
			for i, cmps := range ser.CMPs {
				if err := w.Write([]string{ser.Kernel, label, strconv.Itoa(cmps), ftoa(ser.Modes[label][i])}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (s *Session) csvFig6(w *csv.Writer) error {
	data, err := s.Fig6Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "config", "busy", "stall", "arsync", "barrier", "lock"); err != nil {
		return err
	}
	for _, row := range data {
		for _, e := range []struct {
			label string
			bd    stats.Breakdown
		}{
			{"single", row.Single},
			{"double", row.Double},
			{"R-" + row.BestAR.String(), row.R},
			{"A-" + row.BestAR.String(), row.A},
		} {
			if err := w.Write([]string{row.Kernel, e.label,
				itoa(e.bd.Busy), itoa(e.bd.MemStall), itoa(e.bd.ARSync),
				itoa(e.bd.Barrier), itoa(e.bd.Lock)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Session) csvFig7(w *csv.Writer) error {
	data, err := s.Fig7Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "arsync", "kind",
		"a_timely", "a_late", "a_only", "r_timely", "r_late", "r_only"); err != nil {
		return err
	}
	classes := []stats.ReqClass{stats.ATimely, stats.ALate, stats.AOnly, stats.RTimely, stats.RLate, stats.ROnly}
	for _, row := range data {
		read := []string{row.Kernel, row.AR.String(), "read"}
		excl := []string{row.Kernel, row.AR.String(), "exclusive"}
		for _, c := range classes {
			read = append(read, itoa(row.Req.Reads[c]))
			excl = append(excl, itoa(row.Req.Exclusives[c]))
		}
		if err := w.Write(read); err != nil {
			return err
		}
		if err := w.Write(excl); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) csvFig9(w *csv.Writer) error {
	data, err := s.Fig9Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "a_reads", "transparent_issued", "transparent_replies", "upgraded"); err != nil {
		return err
	}
	for _, row := range data {
		if err := w.Write([]string{row.Kernel,
			itoa(row.TL.AReadRequests), itoa(row.TL.TransparentIssued),
			itoa(row.TL.TransparentReply), itoa(row.TL.Upgraded)}); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) csvFig10(w *csv.Writer) error {
	data, err := s.Fig10Data()
	if err != nil {
		return err
	}
	if err := header(w, "kernel", "cmps", "prefetch", "prefetch_tl", "prefetch_tl_si"); err != nil {
		return err
	}
	for _, row := range data {
		if err := w.Write([]string{row.Kernel, strconv.Itoa(row.CMPs),
			ftoa(row.Prefetch), ftoa(row.TL), ftoa(row.TLSI)}); err != nil {
			return err
		}
	}
	return nil
}
