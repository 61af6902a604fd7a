// Command simlint runs the repository's determinism and API-invariant
// analyzers (internal/analysis) over the module:
//
//	go run ./cmd/simlint ./...
//
// It prints one "file:line:col: [analyzer] message" line per finding
// (or a JSON array with -json) and exits non-zero when anything is
// flagged. Each analyzer has an enable flag (-nondeterminism=false and
// friends) defaulting to on.
//
// Findings are suppressed in source with
// "//simlint:ignore <analyzers> <reason>" on (or directly above) the
// offending line, and order-dependent map ranges proven commutative or
// pre-sorted with "//simlint:ordered <reason>". Hot-path roots are
// marked with "//simlint:hotpath" in a function's doc comment. See
// DESIGN.md sections "Determinism invariants" and "Static contract
// enforcement" for the rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"slipstream/internal/analysis"
	"slipstream/internal/buildinfo"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	version := flag.Bool("version", false, "print version and exit")
	enabled := make(map[string]*bool)
	for _, a := range analysis.Analyzers() {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer ("+a.Doc+")")
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: simlint [-json] [-<analyzer>=false] [packages]\n\npackages are directory patterns (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("simlint"))
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	var analyzers []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	diags := prog.Run(analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func load(patterns []string) (*analysis.Program, error) {
	moduleDir, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	dirs, err := analysis.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		path, err := importPathFor(loader, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return &analysis.Program{Pkgs: pkgs, All: loader.Loaded()}, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, returning a path relative to the working directory when
// possible so findings print as repo-relative file paths.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	abs := dir
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			if rel, err := filepath.Rel(dir, abs); err == nil {
				return rel, nil
			}
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// importPathFor maps a source directory to its module import path.
func importPathFor(l *analysis.Loader, dir string) (string, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	absRoot, err := filepath.Abs(l.ModuleDir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(absRoot, absDir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModulePath)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}
