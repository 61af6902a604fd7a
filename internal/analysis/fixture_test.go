package analysis

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata fixture package under a synthetic
// import path (so path-scoped analyzers can be switched on or off) and
// runs the full analyzer suite over it.
func loadFixture(t *testing.T, name, pkgPath string, extra map[string]string) (*Package, []Diagnostic) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader.Extra = extra
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Pkgs: []*Package{pkg}, All: loader.Loaded()}
	return pkg, prog.Run(Analyzers())
}

func TestNondeterminismFixture(t *testing.T) {
	// Loaded under a synthetic internal/sim path so the analyzer applies.
	pkg, diags := loadFixture(t, "nondeterminism", "slipstream/internal/sim/fixture", nil)
	checkExpectations(t, pkg, diags)
}

func TestMapOrderFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "maporder", "fixtures/maporder", nil)
	checkExpectations(t, pkg, diags)
}

func TestFloatSumFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "floatsum", "fixtures/floatsum", nil)
	checkExpectations(t, pkg, diags)
}

func TestOptValidateFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "optvalidate", "fixtures/optvalidate", map[string]string{
		"optvalidate/core": filepath.Join("testdata", "src", "optvalidate", "core"),
	})
	checkExpectations(t, pkg, diags)
}

func TestHotPathAllocFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "hotpathalloc", "fixtures/hotpathalloc", nil)
	checkExpectations(t, pkg, diags)
}

func TestObsPurityFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "obspurity", "fixtures/obspurity", map[string]string{
		"obspurity/obs":                filepath.Join("testdata", "src", "obspurity", "obs"),
		"obspurity/internal/sim/state": filepath.Join("testdata", "src", "obspurity", "internal", "sim", "state"),
	})
	checkExpectations(t, pkg, diags)
}

func TestSuppressAuditFixture(t *testing.T) {
	pkg, diags := loadFixture(t, "suppressaudit", "fixtures/suppressaudit", nil)
	checkExpectations(t, pkg, diags)
}

// TestRunIsDeterministic asserts two independent loads of the same
// fixture produce byte-identical diagnostics — the suite must hold
// itself to the invariant it enforces.
func TestRunIsDeterministic(t *testing.T) {
	_, first := loadFixture(t, "maporder", "fixtures/maporder", nil)
	_, second := loadFixture(t, "maporder", "fixtures/maporder", nil)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("diagnostics differ between identical runs:\n%v\n%v", first, second)
	}
	if len(first) == 0 {
		t.Error("expected findings from the maporder fixture, got none")
	}
}

// TestExpandPatterns pins the recursive walk: testdata/src/nestedmod
// holds its own go.mod, so like `go list ./...` the walk must leave it
// and its subdirectories out, while naming it as the pattern root still
// analyzes it.
func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{filepath.Join("testdata", "src") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join("testdata", "src", "callgraph"),
		filepath.Join("testdata", "src", "floatsum"),
		filepath.Join("testdata", "src", "hotpathalloc"),
		filepath.Join("testdata", "src", "maporder"),
		filepath.Join("testdata", "src", "nondeterminism"),
		filepath.Join("testdata", "src", "obspurity"),
		filepath.Join("testdata", "src", "obspurity", "internal", "sim", "state"),
		filepath.Join("testdata", "src", "obspurity", "obs"),
		filepath.Join("testdata", "src", "optvalidate"),
		filepath.Join("testdata", "src", "optvalidate", "core"),
		filepath.Join("testdata", "src", "suppressaudit"),
	}
	got := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		got[d] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("ExpandPatterns missed %s (got %v)", w, dirs)
		}
	}
	if len(dirs) != len(want) {
		t.Errorf("ExpandPatterns returned %d dirs, want %d: %v", len(dirs), len(want), dirs)
	}

	nested := filepath.Join("testdata", "src", "nestedmod")
	dirs, err = ExpandPatterns([]string{nested + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{nested, filepath.Join(nested, "inner")}; !reflect.DeepEqual(dirs, want) {
		t.Errorf("ExpandPatterns(%s/...) = %v, want %v", nested, dirs, want)
	}
}

type lineKey struct {
	file string
	line int
}

// parseWants extracts expectation comments from fixture sources:
//
//	code() // want `substring` `another substring`
//	// want-above `substring`   (attaches to the previous line)
//	// want-below `substring`   (attaches to the next line)
//
// want-below exists for findings reported on a standalone directive line,
// where a trailing comment would become part of the directive itself; it
// skips blank comment lines, because gofmt separates directives from the
// rest of a doc comment with one.
// Each backtick-delimited pattern must be a substring of some diagnostic
// reported on that line, and every diagnostic must match some pattern.
func parseWants(pkg *Package) map[lineKey][]string {
	wants := make(map[lineKey][]string)
	for name, src := range pkg.Src {
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			n := i + 1
			if idx := strings.Index(line, "// want-above "); idx >= 0 {
				k := lineKey{name, n - 1}
				wants[k] = append(wants[k], backtickPatterns(line[idx:])...)
				continue
			}
			if idx := strings.Index(line, "// want-below "); idx >= 0 {
				j := i + 1
				for j < len(lines) && strings.TrimSpace(lines[j]) == "//" {
					j++
				}
				k := lineKey{name, j + 1}
				wants[k] = append(wants[k], backtickPatterns(line[idx:])...)
				continue
			}
			if idx := strings.Index(line, "// want "); idx >= 0 {
				k := lineKey{name, n}
				wants[k] = append(wants[k], backtickPatterns(line[idx:])...)
			}
		}
	}
	return wants
}

// backtickPatterns returns the text between each backtick pair in s.
func backtickPatterns(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '`')
		if i < 0 {
			return out
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '`')
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
}

func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(pkg)
	byLine := make(map[lineKey][]Diagnostic)
	for _, d := range diags {
		k := lineKey{d.File, d.Line}
		byLine[k] = append(byLine[k], d)
	}
	for k, pats := range wants {
		for _, pat := range pats {
			matched := false
			for _, d := range byLine[k] {
				if strings.Contains(d.Message, pat) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q; got %s",
					k.file, k.line, pat, describe(byLine[k]))
			}
		}
	}
	for k, got := range byLine {
		for _, d := range got {
			matched := false
			for _, pat := range wants[k] {
				if strings.Contains(d.Message, pat) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: unexpected diagnostic [%s] %s", k.file, k.line, d.Analyzer, d.Message)
			}
		}
	}
}

func describe(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "no diagnostics"
	}
	var b strings.Builder
	for i, d := range diags {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString("[" + d.Analyzer + "] " + d.Message)
	}
	return b.String()
}
