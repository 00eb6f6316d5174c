package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static-analysis pass of the fleetvet suite. It is
// deliberately shaped like golang.org/x/tools/go/analysis.Analyzer so
// the passes could migrate to the upstream framework without rewrites.
type Analyzer struct {
	// Name identifies the pass in diagnostics and test expectations.
	Name string
	// Doc is a one-line description printed by fleetvet's usage text.
	Doc string
	// Run inspects one package and reports findings via Pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package: the parsed files,
// the type-checked package, and the diagnostic sink.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps AST positions to file:line.
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// Dir is the package directory, used by path-keyed messages.
	Dir string
	// PkgName is the package name (doclint skips "main" packages, the
	// commands and examples).
	PkgName string

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding of one pass.
type Diagnostic struct {
	// Pos locates the finding (file:line:column).
	Pos token.Position
	// Pass names the analyzer that produced the finding.
	Pass string
	// Message describes the violated invariant.
	Message string
}

// String renders the finding in the clickable file:line:col format the
// CI logs rely on.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Pass)
}

// Suite returns the full fleetvet pass list: determinism, noalloc,
// exhaustive (with a fresh enum registry), and doclint. A fresh suite
// must be created per driver run — the exhaustive pass accumulates
// cross-package enum state.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(),
		NewNoAlloc(),
		NewExhaustive(),
		NewDocLint(),
	}
}

// directivePrefix introduces every fleetvet comment directive.
const directivePrefix = "//fleetvet:"

// A directive is one parsed //fleetvet: comment line.
type directive struct {
	name string // e.g. "noalloc", "nondeterministic"
	arg  string // rest of the line, trimmed
	pos  token.Pos
	line int
}

// parseDirectives extracts the //fleetvet: lines of one comment group.
func parseDirectives(fset *token.FileSet, cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		text := c.Text
		if !strings.HasPrefix(text, directivePrefix) {
			continue
		}
		rest := text[len(directivePrefix):]
		name, arg, _ := strings.Cut(rest, " ")
		out = append(out, directive{
			name: strings.TrimSpace(name),
			arg:  strings.TrimSpace(arg),
			pos:  c.Pos(),
			line: fset.Position(c.Pos()).Line,
		})
	}
	return out
}

// fileDirectives extracts every //fleetvet: line of one file, in source
// order (File.Comments holds all comment groups, including doc
// comments, when parsed with parser.ParseComments).
func fileDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		out = append(out, parseDirectives(fset, cg)...)
	}
	return out
}

// hasDirective reports whether a comment group carries the named
// directive.
func hasDirective(fset *token.FileSet, cg *ast.CommentGroup, name string) bool {
	for _, d := range parseDirectives(fset, cg) {
		if d.name == name {
			return true
		}
	}
	return false
}

// packageMarked reports whether any file of the package carries the
// named package-level directive (conventionally in the doc.go package
// comment).
func packageMarked(fset *token.FileSet, files []*ast.File, name string) bool {
	for _, f := range files {
		for _, d := range fileDirectives(fset, f) {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// waiverSet indexes one file's statement waivers of one directive name
// by line. A trailing waiver (sharing its line with code) covers the
// findings of that one line; a standalone waiver line covers the
// findings of the single line directly below. Either way the scope is
// exactly one statement line, never a region or a file.
type waiverSet struct {
	byLine   map[int]directive
	codeLine map[int]bool
}

// collectWaivers builds the waiver table for one file and reports each
// waiver lacking the mandatory reason string as a finding of its own.
func collectWaivers(pass *Pass, f *ast.File, name string) waiverSet {
	ws := waiverSet{byLine: make(map[int]directive), codeLine: codeLines(pass.Fset, f)}
	for _, d := range fileDirectives(pass.Fset, f) {
		if d.name != name {
			continue
		}
		if d.arg == "" {
			pass.Reportf(d.pos, "//fleetvet:%s waiver requires a reason", name)
			continue
		}
		ws.byLine[d.line] = d
	}
	return ws
}

// waived reports whether a finding at pos is covered by a waiver.
func (ws waiverSet) waived(fset *token.FileSet, pos token.Pos) bool {
	line := fset.Position(pos).Line
	if _, ok := ws.byLine[line]; ok && ws.codeLine[line] {
		return true // trailing waiver on the finding's own line
	}
	if _, ok := ws.byLine[line-1]; ok && !ws.codeLine[line-1] {
		return true // standalone waiver line directly above
	}
	return false
}

// codeLines marks every line on which a non-comment syntax node starts,
// distinguishing trailing waivers from standalone waiver lines.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}
