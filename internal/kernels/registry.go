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
	upper := strings.ToUpper(name)
	if p != "" && upper != "SYNTH" {
		return nil, fmt.Errorf("kernels: %s takes no parameters (got %q); only SYNTH is parameterized", upper, string(p))
	}
	switch upper {
	case "FFT":
		return fft.New(fft.Config{LogN: pick(size, 8, 10, 12)}), nil
	case "OCEAN":
		return ocean.New(ocean.Config{N: pick(size, 34, 66, 258), Steps: pick(size, 2, 3, 4)}), nil
	case "WATER-NS":
		return waterns.New(waterns.Config{N: pick(size, 16, 32, 128), Steps: pick(size, 2, 2, 3)}), nil
	case "WATER-SP":
		return watersp.New(watersp.Config{N: pick(size, 27, 64, 216), Cells: pick(size, 3, 4, 4), Steps: pick(size, 2, 3, 4)}), nil
	case "SOR":
		return sor.New(sor.Config{N: pick(size, 34, 130, 258), Iters: pick(size, 2, 3, 4)}), nil
	case "LU":
		return lu.New(lu.Config{N: pick(size, 48, 96, 256), B: 16}), nil
	case "CG":
		return cg.New(cg.Config{N: pick(size, 96, 256, 700), PerRow: pick(size, 8, 8, 12), Iters: pick(size, 3, 5, 10)}), nil
	case "MG":
		return mg.New(mg.Config{N: pick(size, 8, 16, 32), Cycles: pick(size, 1, 2, 2)}), nil
	case "SP":
		return sp.New(sp.Config{N: pick(size, 8, 12, 24), Iters: pick(size, 2, 3, 4)}), nil
	case "BITONIC":
		return bitonic.New(bitonic.Config{LogN: pick(size, 8, 10, 12)}), nil
	case "FWT":
		return fwt.New(fwt.Config{LogN: pick(size, 8, 11, 13)}), nil
	case "MAXPOOL":
		return maxpool.New(maxpool.Config{H: pick(size, 40, 96, 224), W: pick(size, 40, 96, 224)}), nil
	case "SYNTH":
		m, err := p.Map()
		if err != nil {
			return nil, err
		}
		cfg := synth.Defaults(pick(size, 256, 2048, 8192), pick(size, 128, 512, 2048))
		if err := cfg.Apply(m); err != nil {
			return nil, err
		}
		return synth.New(cfg)
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q (want one of %s)",
		name, strings.Join(AllNames(), ", "))
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
