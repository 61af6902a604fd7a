package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked, non-test package: the unit the analyzers
// run over.
type Package struct {
	// Path is the import path the package was loaded under. Fixture
	// packages may be loaded under a synthetic path so that path-scoped
	// analyzers apply to them.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Src maps each parsed filename to its source bytes (used to decide
	// whether a directive comment stands alone on its line).
	Src   map[string][]byte
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved recursively from
// source, everything else through go/importer's source importer (GOROOT).
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	// Extra maps additional import paths to directories (testdata fixture
	// packages that live outside the module's import space).
	Extra map[string]string

	order   []*Package
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
}

// NewLoader returns a loader rooted at the module in moduleDir (which must
// contain go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  moduleDir,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        std,
	}, nil
}

// dirFor resolves an import path to a source directory if the loader owns
// it (module-internal or Extra); ok is false for everything else.
func (l *Loader) dirFor(path string) (string, bool) {
	if d, ok := l.Extra[path]; ok {
		return d, true
	}
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load parses and type-checks the package with the given import path,
// memoized across calls.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: import path %q is outside the module", path)
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the non-test sources in dir under the
// given import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.Fset,
		Src:  make(map[string][]byte),
	}
	for _, name := range bp.GoFiles {
		fname := filepath.Join(dir, name)
		src, err := os.ReadFile(fname)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, fname, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Src[fname] = src
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// Import implements types.Importer for the loader's own type-checking
// passes: module-internal (and Extra) paths load recursively from source;
// everything else resolves through the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}

// Loaded returns every package the loader has type-checked from source, in
// load order — the analyzed set plus its module-internal dependencies.
func (l *Loader) Loaded() []*Package {
	return l.order
}

// ExpandPatterns resolves command-line package patterns ("./...",
// "./internal/...", plain directories) into directories containing
// buildable non-test Go files, skipping testdata, vendor, hidden, and
// underscore-prefixed directories. Like `go list`, a recursive pattern
// stops at nested modules: a directory below the pattern root that holds
// its own go.mod belongs to another module and is skipped with its
// subtree.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if seen[dir] {
			return
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			return // no buildable Go files here
		}
		seen[dir] = true
		dirs = append(dirs, dir)
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != root {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
