// Package analysis is a stdlib-only static-analysis suite that enforces
// the simulator's determinism and API invariants. The persistent run
// cache and the golden -j1 == -j8 tests are only sound if every simulated
// run is a pure function of its RunSpec; these analyzers catch the code
// patterns that silently break that contract — wall-clock reads, unseeded
// randomness, concurrency inside simulation packages, map-iteration-order
// dependence, float accumulation over map ranges, and core.Options values
// that reach a Run/Execute sink unvalidated.
//
// The v2 analyzers reason over a program call graph (see callgraph.go)
// and enforce the simulator's structural contracts: hotpathalloc forbids
// heap allocation reachable from //simlint:hotpath roots, obspurity
// proves Bus subscribers never write simulation state, and suppressaudit
// flags suppression directives that no longer suppress anything.
//
// Findings are suppressed with justification comments:
//
//	//simlint:ignore <analyzer[,analyzer]|all> <reason>   same line or line above
//	//simlint:ordered <reason>                            map range proven commutative/pre-sorted
//	//simlint:hotpath [reason]                            root marker (doc comment), not a suppression
//
// A directive without a reason is malformed: it suppresses nothing and is
// itself reported.
package analysis

import (
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Prog *Program
	Pkg  *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  msg,
	})
}

// Program is the set of packages under analysis plus the module-internal
// dependencies needed for cross-package facts.
type Program struct {
	// Pkgs are the packages the analyzers report on.
	Pkgs []*Package
	// All additionally holds module-internal dependency packages whose
	// sources were loaded for fact computation (optvalidate's validating-
	// function set). When nil, Pkgs is used.
	All []*Package

	validating map[string]bool // initialized by validatingFuncs
	graph      *CallGraph      // initialized by callGraph
	hot        *hotFacts       // initialized by hotReachability
	simWrites  map[*CGNode][]simWrite
}

// allPkgs returns the fact-computation package set.
func (prog *Program) allPkgs() []*Package {
	if prog.All != nil {
		return prog.All
	}
	return prog.Pkgs
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism, MapOrder, FloatSum, OptValidate,
		HotPathAlloc, ObsPurity, SuppressAudit,
	}
}

// Run executes the analyzers over every package, applies suppression
// directives, and returns the surviving findings sorted by position.
// Malformed directives are reported as findings of the pseudo-analyzer
// "simlint".
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Prog: prog, Pkg: pkg, analyzer: a, diags: &diags}
			a.Run(pass)
		}
		out = append(out, prog.filterSuppressed(pkg, diags, analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
