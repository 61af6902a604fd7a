// Package kernels provides the registry of simulated workloads with size
// presets: Tiny for unit tests and Go benchmarks, Small for quick
// interactive runs, and Paper for the experiment harness (the scaled-down
// equivalents of Table 2 recorded in EXPERIMENTS.md).
//
// The registry holds three tiers: the paper's nine Table-2 benchmarks
// (Names), three ported kernels with sharing patterns the nine do not
// cover (Ports: BITONIC, FWT, MAXPOOL), and the parameterized synthetic
// sharing-pattern generator (SYNTH, package synth), whose knobs are set
// through Params. Describe renders the whole catalog with the synth
// parameter schema.
package kernels

import (
	"fmt"
	"strings"

	"slipstream/internal/core"
	"slipstream/internal/kernels/bitonic"
	"slipstream/internal/kernels/cg"
	"slipstream/internal/kernels/fft"
	"slipstream/internal/kernels/fwt"
	"slipstream/internal/kernels/lu"
	"slipstream/internal/kernels/maxpool"
	"slipstream/internal/kernels/mg"
	"slipstream/internal/kernels/ocean"
	"slipstream/internal/kernels/sor"
	"slipstream/internal/kernels/sp"
	"slipstream/internal/kernels/synth"
	"slipstream/internal/kernels/waterns"
	"slipstream/internal/kernels/watersp"
)

// Size selects a preset problem size.
type Size int

// Presets.
const (
	Tiny  Size = iota // unit tests and testing.B benchmarks
	Small             // quick interactive runs
	Paper             // experiment harness (Table 2, scaled; see EXPERIMENTS.md)
)

func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// ParseSize converts a preset name.
func ParseSize(s string) (Size, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("kernels: unknown size %q (want tiny, small, or paper)", s)
}

// MarshalText encodes the preset as its String form, its JSON form too.
func (s Size) MarshalText() ([]byte, error) {
	if s < Tiny || s > Paper {
		return nil, fmt.Errorf("kernels: unknown size Size(%d)", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a preset from its String form via ParseSize.
func (s *Size) UnmarshalText(b []byte) error {
	v, err := ParseSize(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Names lists the paper's benchmarks in Table 2 order. The harness's
// paper figures sweep exactly this set.
func Names() []string {
	return []string{"FFT", "OCEAN", "WATER-NS", "WATER-SP", "SOR", "LU", "CG", "MG", "SP"}
}

// Ports lists the kernels ported beyond the paper's nine: butterfly
// all-to-all communication (BITONIC, FWT) and a halo-read DNN stencil
// (MAXPOOL).
func Ports() []string {
	return []string{"BITONIC", "FWT", "MAXPOOL"}
}

// AllNames lists every registered workload: the paper's nine, the three
// ports, and the parameterized synthetic generator.
func AllNames() []string {
	return append(append(Names(), Ports()...), "SYNTH")
}

// New builds the named benchmark at the given size preset with default
// parameters.
func New(name string, size Size) (core.Kernel, error) {
	return NewParams(name, size, "")
}

// NewParams builds the named benchmark at the given size preset with the
// given parameters. Only parameterized kernels (today: SYNTH) accept a
// non-empty Params; passing parameters to a fixed kernel is an error, so
// a spec cannot carry dead knobs that would still fork its cache key.
func NewParams(name string, size Size, p Params) (core.Kernel, error) {
	k, _, err := build(name, size, p)
	return k, err
}

// SizeLabel describes the data size the named benchmark runs at a
// preset, in Table 2's terms ("4K complex", "258x258", "128 molecules").
// It reads the preset numbers NewParams builds with, so the two cannot
// disagree.
func SizeLabel(name string, size Size) (string, error) {
	_, d, err := build(name, size, "")
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

// build is NewParams that also returns the data size of the kernel it
// builds. Each preset's numbers live here and nowhere else.
func build(name string, size Size, p Params) (core.Kernel, dataSize, error) {
	upper := strings.ToUpper(name)
	if p != "" && upper != "SYNTH" {
		return nil, dataSize{}, fmt.Errorf("kernels: %s takes no parameters (got %q); only SYNTH is parameterized", upper, string(p))
	}
	switch upper {
	case "FFT":
		logN := pick(size, 8, 10, 12)
		return fft.New(fft.Config{LogN: logN}), count(1<<logN, "complex"), nil
	case "OCEAN":
		n := pick(size, 34, 66, 258)
		return ocean.New(ocean.Config{N: n, Steps: pick(size, 2, 3, 4)}), square(n), nil
	case "WATER-NS":
		n := pick(size, 16, 32, 128)
		return waterns.New(waterns.Config{N: n, Steps: pick(size, 2, 2, 3)}), count(n, "molecules"), nil
	case "WATER-SP":
		n := pick(size, 27, 64, 216)
		return watersp.New(watersp.Config{N: n, Cells: pick(size, 3, 4, 4), Steps: pick(size, 2, 3, 4)}), count(n, "molecules"), nil
	case "SOR":
		n := pick(size, 34, 130, 258)
		return sor.New(sor.Config{N: n, Iters: pick(size, 2, 3, 4)}), square(n), nil
	case "LU":
		n := pick(size, 48, 96, 256)
		return lu.New(lu.Config{N: n, B: 16}), square(n), nil
	case "CG":
		n := pick(size, 96, 256, 700)
		return cg.New(cg.Config{N: n, PerRow: pick(size, 8, 8, 12), Iters: pick(size, 3, 5, 10)}), count(n, ""), nil
	case "MG":
		n := pick(size, 8, 16, 32)
		return mg.New(mg.Config{N: n, Cycles: pick(size, 1, 2, 2)}), cube(n), nil
	case "SP":
		n := pick(size, 8, 12, 24)
		return sp.New(sp.Config{N: n, Iters: pick(size, 2, 3, 4)}), cube(n), nil
	case "BITONIC":
		logN := pick(size, 8, 10, 12)
		return bitonic.New(bitonic.Config{LogN: logN}), count(1<<logN, "keys"), nil
	case "FWT":
		logN := pick(size, 8, 11, 13)
		return fwt.New(fwt.Config{LogN: logN}), count(1<<logN, "points"), nil
	case "MAXPOOL":
		n := pick(size, 40, 96, 224)
		return maxpool.New(maxpool.Config{H: n, W: n}), square(n), nil
	case "SYNTH":
		m, err := p.Map()
		if err != nil {
			return nil, dataSize{}, err
		}
		cfg := synth.Defaults(pick(size, 256, 2048, 8192), pick(size, 128, 512, 2048))
		if err := cfg.Apply(m); err != nil {
			return nil, dataSize{}, err
		}
		k, err := synth.New(cfg)
		if err != nil {
			return nil, dataSize{}, err
		}
		return k, count(cfg.WS, "words"), nil
	}
	return nil, dataSize{}, fmt.Errorf("kernels: unknown benchmark %q (want one of %s)",
		name, strings.Join(AllNames(), ", "))
}

// dataSize is a preset's data size: n units, or a grid n wide in dims
// dimensions. build returns it unformatted, so that NewParams, which
// admission calls on every spec, formats no label.
type dataSize struct {
	n, dims int
	unit    string
}

func count(n int, unit string) dataSize { return dataSize{n: n, unit: unit} }
func square(n int) dataSize             { return dataSize{n: n, dims: 2} }
func cube(n int) dataSize               { return dataSize{n: n, dims: 3} }

// String renders the size as Table 2 prints it: "4K complex", "700",
// "258x258", "32x32x32".
func (d dataSize) String() string {
	switch {
	case d.dims == 2:
		return fmt.Sprintf("%dx%d", d.n, d.n)
	case d.dims == 3:
		return fmt.Sprintf("%dx%dx%d", d.n, d.n, d.n)
	case d.unit == "":
		return fmt.Sprint(d.n)
	case d.n >= 1024 && d.n%1024 == 0:
		return fmt.Sprintf("%dK %s", d.n/1024, d.unit)
	}
	return fmt.Sprintf("%d %s", d.n, d.unit)
}

// SplitSpec splits the CLI workload syntax "NAME" or "NAME:k=v,k=v" into
// the kernel name and its canonicalized parameters.
func SplitSpec(s string) (name string, p Params, err error) {
	name, rest, ok := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if !ok {
		return name, "", nil
	}
	p, err = ParseParams(rest)
	if err != nil {
		return "", "", err
	}
	return name, p, nil
}

// Describe renders the workload catalog: every registered kernel with a
// one-line description, then the SYNTH parameter schema — the -list
// output of the slipsim CLI, so new workloads are discoverable without
// reading source.
func Describe() string {
	brief := []struct{ name, desc string }{
		{"FFT", "six-step 1-D complex FFT: blocked all-to-all transposes around local row FFTs (paper Table 2)"},
		{"OCEAN", "vorticity/stream-function relaxation: stencils plus a lock-guarded residual reduction (paper Table 2)"},
		{"WATER-NS", "n-squared molecular dynamics: all-pairs forces under fine-grained molecule locks (paper Table 2)"},
		{"WATER-SP", "spatial molecular dynamics: cell-list forces, neighbour-cell sharing (paper Table 2)"},
		{"SOR", "red-black successive over-relaxation: nearest-neighbour boundary-row exchange (paper Table 2)"},
		{"LU", "blocked dense LU factorization: pivot-block broadcast, migratory panels (paper Table 2)"},
		{"CG", "conjugate gradient: sparse mat-vec with irregular row sharing (paper Table 2)"},
		{"MG", "multigrid V-cycles: stencils across resolution levels (paper Table 2)"},
		{"SP", "scalar pentadiagonal solver: line sweeps with pipelined wait/signal dependences (paper Table 2)"},
		{"BITONIC", "bitonic sort: compare-exchange butterfly, single-word all-to-all exchanges (AMD APP SDK port)"},
		{"FWT", "fast Walsh-Hadamard transform: butterfly with doubling communication distance (AMD APP SDK port)"},
		{"MAXPOOL", "two-layer max-pooling DNN stage: halo-read stencil, write-private outputs (DNN layer port)"},
		{"SYNTH", "parameterized synthetic sharing-pattern generator (see parameters below)"},
	}
	var b strings.Builder
	b.WriteString("workloads (-kernel NAME, sizes tiny/small/paper):\n")
	for _, e := range brief {
		fmt.Fprintf(&b, "  %-9s %s\n", e.name, e.desc)
	}
	b.WriteString("\nSYNTH parameters (-kernel \"SYNTH:k=v,k=v\" or -params \"k=v,k=v\"):\n")
	for _, d := range synth.Schema() {
		rng := fmt.Sprintf("[%g, %g]", d.Min, d.Max)
		if d.Integer {
			rng = fmt.Sprintf("[%.0f, %.0f] int", d.Min, d.Max)
		}
		fmt.Fprintf(&b, "  %-5s %-22s %s\n", d.Name, rng, d.Desc)
	}
	return b.String()
}

func pick(s Size, tiny, small, paper int) int {
	switch s {
	case Tiny:
		return tiny
	case Small:
		return small
	default:
		return paper
	}
}
