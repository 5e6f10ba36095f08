// Package vet is bpvet's engine: a small, dependency-free static
// analysis framework plus the project-specific analyzers that
// mechanically enforce the transport/agent discipline established in the
// hardening work (DESIGN.md §5, §6).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature — an Analyzer interface, a pkgPass carrying one type-checked
// package, and Diagnostics keyed by position — but is built exclusively
// on the standard library (go/ast, go/parser, go/types, go/importer) so
// go.mod stays dependency-free.
//
// Since v2 the framework has two analyzer shapes: packageAnalyzer (one
// type-checked package at a time, like go/analysis) and programAnalyzer
// (the whole module at once, over the call-graph substrate in
// callgraph.go). Run drives both from one analyzer list.
//
// Findings can be suppressed with a comment on the offending line or the
// line directly above it:
//
//	//bpvet:ignore <analyzer> [<analyzer>...] rationale...
//
// Both parts are mandatory: naming the analyzers ties the suppression to
// the rule it silences, and the rationale records why the finding is a
// false positive or an accepted risk. A bpvet:ignore comment with no
// known analyzer name or no rationale is itself reported (analyzer
// "ignore") and cannot be suppressed.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's canonical "file:line: [name] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// pkgPass carries one type-checked package through one analyzer.
type pkgPass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgPath string
	Info    *types.Info

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *pkgPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *pkgPass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// progPass carries the whole-program view through one programAnalyzer.
type progPass struct {
	Prog *program

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *progPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker: either a packageAnalyzer or a
// programAnalyzer (or both, though none currently is).
type Analyzer interface {
	// Name is the short identifier used in output and in
	// //bpvet:ignore comments.
	Name() string
	// Doc is a one-line description of the enforced rule.
	Doc() string
}

// packageAnalyzer inspects one type-checked package at a time.
type packageAnalyzer interface {
	Analyzer
	Run(p *pkgPass)
}

// programAnalyzer inspects the whole loaded module at once, over the
// call-graph and flow-facts substrate.
type programAnalyzer interface {
	Analyzer
	RunProgram(p *progPass)
}

// All returns the full bpvet analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		lockedsend{},
		nakedgo{},
		blockingsend{},
		busypoll{},
		droppederr{},
		lockorder{},
		goleak{},
	}
}

// Run applies the analyzers to every package, filters suppressed
// findings, and returns the remainder sorted by position. Malformed
// //bpvet:ignore comments are appended as findings of the pseudo
// analyzer "ignore"; those cannot themselves be suppressed.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pa, ok := a.(packageAnalyzer)
			if !ok {
				continue
			}
			pass := &pkgPass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.Path,
				Info:     pkg.Info,
				analyzer: a.Name(),
				out:      &diags,
			}
			pa.Run(pass)
		}
	}
	var prog *program
	for _, a := range analyzers {
		pa, ok := a.(programAnalyzer)
		if !ok {
			continue
		}
		if prog == nil {
			prog = buildProgram(pkgs)
		}
		pa.RunProgram(&progPass{Prog: prog, analyzer: a.Name(), out: &diags})
	}

	directives, bad := collectIgnores(pkgs)
	diags = filterSuppressed(directives, diags)
	diags = append(diags, bad...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreDirective is one well-formed //bpvet:ignore comment.
type ignoreDirective struct {
	Pos       token.Position
	Analyzers []string
}

// collectIgnores scans every comment in pkgs for bpvet:ignore
// directives. Well-formed ones (at least one known analyzer name plus a
// non-empty rationale) are returned as directives; malformed ones come
// back as findings of the pseudo-analyzer "ignore".
func collectIgnores(pkgs []*Package) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, isDirective := parseIgnore(c.Text)
					if !isDirective {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					switch {
					case len(names) == 0:
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "ignore",
							Message:  "bpvet:ignore names no known analyzer; write //bpvet:ignore <analyzer> <reason>",
						})
					case reason == "":
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "ignore",
							Message: fmt.Sprintf("bpvet:ignore %s carries no reason; every suppression must say why",
								strings.Join(names, ", ")),
						})
					default:
						dirs = append(dirs, ignoreDirective{Pos: pos, Analyzers: names})
					}
				}
			}
		}
	}
	return dirs, bad
}

// filterSuppressed drops findings that a well-formed //bpvet:ignore
// directive on the same or the preceding line covers.
func filterSuppressed(directives []ignoreDirective, diags []Diagnostic) []Diagnostic {
	if len(directives) == 0 {
		return diags
	}
	// file -> line -> suppressed analyzer names.
	suppressed := make(map[string]map[int]map[string]bool)
	for _, dir := range directives {
		byLine := suppressed[dir.Pos.Filename]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			suppressed[dir.Pos.Filename] = byLine
		}
		set := byLine[dir.Pos.Line]
		if set == nil {
			set = make(map[string]bool)
			byLine[dir.Pos.Line] = set
		}
		for _, n := range dir.Analyzers {
			set[n] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		byLine := suppressed[d.Pos.Filename]
		if byLine[d.Pos.Line][d.Analyzer] || byLine[d.Pos.Line-1][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// parseIgnore splits a //bpvet:ignore comment into analyzer names and
// rationale. Names are the leading whitespace-separated tokens that
// match known analyzers (trailing commas/colons tolerated); everything
// after the first non-name token is the rationale. isDirective is false
// when the comment is not a bpvet:ignore directive at all.
func parseIgnore(comment string) (names []string, reason string, isDirective bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "bpvet:ignore")
	if !ok {
		return nil, "", false
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name()] = true
	}
	fields := strings.Fields(rest)
	i := 0
	for ; i < len(fields); i++ {
		tok := strings.TrimRight(fields[i], ",:")
		if !known[tok] {
			break
		}
		names = append(names, tok)
	}
	return names, strings.Join(fields[i:], " "), true
}

// --- shared AST helpers used by several analyzers ---

// walkStack traverses root in source order, calling fn with every node
// and the stack of its ancestors (outermost first, not including n).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// funcBodies yields every function body in the file — declarations and
// literals — paired with a printable name. Each body is yielded once;
// analyzers that treat function scopes independently should skip nested
// FuncLit subtrees themselves when walking a body.
func funcBodies(file *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Body)
			}
		case *ast.FuncLit:
			fn("func literal", d.Body)
		}
		return true
	})
}

// inspectSameFunc walks body but does not descend into nested function
// literals, so findings stay scoped to one function.
func inspectSameFunc(body ast.Node, fn func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != body {
			return false
		}
		return fn(n)
	})
}

// errorType reports whether t is the built-in error interface.
var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorIface)
}

// deref removes one level of pointer indirection.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedFrom returns the named type behind t (after deref), or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// containsRecover reports whether the body calls the recover builtin
// directly (not inside a nested function literal).
func containsRecover(info *types.Info, body ast.Node) bool {
	found := false
	inspectSameFunc(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
				found = true
			}
		}
		return true
	})
	return found
}
