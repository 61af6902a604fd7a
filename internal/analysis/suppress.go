package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// SuppressAudit keeps the suppression inventory honest: a well-formed
// //simlint:ignore or //simlint:ordered directive that no longer
// suppresses any finding is stale — the code it excused
// was fixed or moved — and stale directives are worse than none, because
// they claim a violation that is not there and will silently swallow the
// next real one introduced on that line. Staleness is only judged when
// every analyzer the directive targets is enabled in the current run, so
// partial runs (-disable flags) never produce false staleness.
//
// The analyzer itself is a no-op; the detection lives in the suppression
// filter, which knows which directives matched.
var SuppressAudit = &Analyzer{
	Name: "suppressaudit",
	Doc:  "flag suppression directives that no longer suppress anything",
	Run:  func(*Pass) {},
}

// directive is one parsed //simlint: comment.
type directive struct {
	kind      string          // "ignore", "ordered", or "hotpath"
	analyzers map[string]bool // ignore only; nil means all
	reason    string          // the justification text
	file      string
	line      int // the line the directive suppresses findings on
	pos       token.Position
	bad       string // non-empty if malformed (the reason it is)
}

const (
	ignorePrefix  = "//simlint:ignore"
	orderedPrefix = "//simlint:ordered"
	hotpathPrefix = "//simlint:hotpath"
	prefixAny     = "//simlint:"

	malformedWant = "unknown directive (want //simlint:ignore, //simlint:ordered, or //simlint:hotpath)"
)

// parseDirectives extracts every simlint directive from a package's
// comments. A directive that stands alone on its line applies to the next
// line that is not itself a standalone directive — so directives stack,
// each suppressing its own analyzers on the line they jointly annotate —
// while a trailing directive applies to its own line.
func parseDirectives(pkg *Package, known map[string]bool) []directive {
	// aloneLines records which lines hold a standalone directive, per file,
	// so a stacked directive can skip over the ones below it.
	aloneLines := make(map[string]map[int]bool)
	type rawDir struct {
		c     *ast.Comment
		pos   token.Position
		alone bool
	}
	var raw []rawDir
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefixAny) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				alone := standsAlone(pkg.Src[pos.Filename], pos)
				if alone {
					m := aloneLines[pos.Filename]
					if m == nil {
						m = make(map[int]bool)
						aloneLines[pos.Filename] = m
					}
					m[pos.Line] = true
				}
				raw = append(raw, rawDir{c: c, pos: pos, alone: alone})
			}
		}
	}
	var out []directive
	for _, r := range raw {
		d := parseDirective(r.c.Text, r.pos, known)
		d.file = r.pos.Filename
		d.line = r.pos.Line
		if r.alone {
			d.line = r.pos.Line + 1
			for aloneLines[d.file][d.line] {
				d.line++
			}
		}
		out = append(out, d)
	}
	return out
}

// parseDirective parses one //simlint: comment body.
func parseDirective(text string, pos token.Position, known map[string]bool) directive {
	d := directive{pos: pos}
	var rest string
	switch {
	case strings.HasPrefix(text, ignorePrefix):
		d.kind = "ignore"
		rest = strings.TrimPrefix(text, ignorePrefix)
	case strings.HasPrefix(text, orderedPrefix):
		d.kind = "ordered"
		rest = strings.TrimPrefix(text, orderedPrefix)
	case strings.HasPrefix(text, hotpathPrefix):
		d.kind = "hotpath"
		rest = strings.TrimPrefix(text, hotpathPrefix)
	default:
		d.bad = malformedWant
		return d
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		d.bad = malformedWant
		return d
	}
	fields := strings.Fields(rest)
	switch d.kind {
	case "hotpath":
		// A root marker, not a suppression; the reason is optional.
		d.reason = strings.Join(fields, " ")
		return d
	case "ordered":
		if len(fields) == 0 {
			d.bad = "//simlint:ordered needs a justification: //simlint:ordered <reason>"
			return d
		}
		d.reason = strings.Join(fields, " ")
		return d
	}
	// ignore: first field names the analyzers (or "all"), the rest is the
	// required justification.
	if len(fields) == 0 {
		d.bad = "//simlint:ignore needs an analyzer list and justification: //simlint:ignore <analyzer[,analyzer]|all> <reason>"
		return d
	}
	if fields[0] != "all" {
		d.analyzers = make(map[string]bool)
		for _, name := range strings.Split(fields[0], ",") {
			if !known[name] {
				d.bad = `//simlint:ignore names unknown analyzer "` + name + `"`
				return d
			}
			d.analyzers[name] = true
		}
	}
	if len(fields) < 2 {
		d.bad = "//simlint:ignore needs a justification after the analyzer list"
		return d
	}
	d.reason = strings.Join(fields[1:], " ")
	return d
}

// standsAlone reports whether only whitespace precedes the comment on its
// source line.
func standsAlone(src []byte, pos token.Position) bool {
	if src == nil {
		return true
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return true
	}
	for _, b := range src[start:pos.Offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// filterSuppressed drops diagnostics covered by a well-formed directive,
// appends a "simlint" finding for every malformed directive, and — when
// suppressaudit is enabled — a staleness finding for every well-formed
// suppression that matched nothing.
func (prog *Program) filterSuppressed(pkg *Package, diags []Diagnostic, analyzers []*Analyzer) []Diagnostic {
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	// Directive well-formedness is judged against the full suite, not the
	// enabled subset: disabling an analyzer must not turn its directives
	// into "unknown analyzer" findings.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for name := range enabled {
		known[name] = true
	}
	dirs := parseDirectives(pkg, known)
	used := make([]bool, len(dirs))
	var out []Diagnostic
	for _, diag := range diags {
		if !markSuppressed(diag, dirs, used) {
			out = append(out, diag)
		}
	}
	for i, d := range dirs {
		if d.bad != "" {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				File:     d.pos.Filename,
				Line:     d.pos.Line,
				Col:      d.pos.Column,
				Analyzer: "simlint",
				Message:  "malformed directive: " + d.bad,
			})
			continue
		}
		if used[i] || !enabled[SuppressAudit.Name] || !staleEligible(d, enabled) {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      d.pos,
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Col:      d.pos.Column,
			Analyzer: SuppressAudit.Name,
			Message:  "stale //simlint:" + d.kind + " directive: it suppresses no finding; delete it (or fix its placement)",
		})
	}
	return out
}

// markSuppressed reports whether a well-formed directive covers the
// finding, marking every matching directive as used.
func markSuppressed(diag Diagnostic, dirs []directive, used []bool) bool {
	hit := false
	for i, d := range dirs {
		if d.bad != "" || d.file != diag.File || diag.Line != d.line {
			continue
		}
		switch d.kind {
		case "ignore":
			if d.analyzers == nil || d.analyzers[diag.Analyzer] {
				used[i] = true
				hit = true
			}
		case "ordered":
			if diag.Analyzer == MapOrder.Name || diag.Analyzer == FloatSum.Name {
				used[i] = true
				hit = true
			}
		}
	}
	return hit
}

// staleEligible reports whether an unused directive can be called stale
// under the enabled analyzer set: every analyzer the directive could
// suppress must actually have run, so -disable flags never fabricate
// staleness. Hotpath markers are roots, not suppressions; misplacement is
// hotpathalloc's job.
func staleEligible(d directive, enabled map[string]bool) bool {
	switch d.kind {
	case "ignore":
		if d.analyzers == nil {
			for _, a := range Analyzers() {
				if !enabled[a.Name] {
					return false
				}
			}
			return true
		}
		for name := range d.analyzers { //simlint:ordered all-quantifier over a set; any order yields the same answer
			if !enabled[name] {
				return false
			}
		}
		return true
	case "ordered":
		return enabled[MapOrder.Name] && enabled[FloatSum.Name]
	}
	return false
}
