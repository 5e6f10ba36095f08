package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// droppederr flags discarded errors from Send, Write and Close calls.
// Dropping a transport error silently turns "sends failed" into "no
// answers", which poisons experiment results and hides partitions.
//
// An intentional drop must be written as `_ = x.Send(...)` with an
// explanatory comment on the same line or the line above. Deferred
// calls (`defer f.Close()`) are exempt — cleanup-path convention.
type droppederr struct{}

func (droppederr) Name() string { return "droppederr" }
func (droppederr) Doc() string {
	return "discarded error from Send/Write/Close without an explanatory comment"
}

func (droppederr) Run(p *pkgPass) {
	for _, file := range p.Files {
		comments := commentLines(p.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if name, ok := droppableCall(p, call); ok {
						p.Reportf(call.Pos(), "%s error result discarded; handle it or assign to _ with an explanatory comment", name)
					}
				}
			case *ast.AssignStmt:
				if s.Tok != token.ASSIGN || len(s.Rhs) != 1 || !allBlank(s.Lhs) {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := droppableCall(p, call)
				if !ok {
					return true
				}
				line := p.Fset.Position(s.Pos()).Line
				if !comments[line] && !comments[line-1] {
					p.Reportf(s.Pos(), "%s error discarded without explanation; add a comment saying why the drop is safe", name)
				}
			}
			return true
		})
	}
}

// droppableCall reports whether call is to a Send/Write/Close function
// or method whose last result is an error.
func droppableCall(p *pkgPass, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	switch name {
	case "Send", "Write", "Close", "WriteAt", "SendTo":
	default:
		return "", false
	}
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return "", false
	}
	return name, true
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// commentLines maps line numbers that carry an explanatory comment —
// bpvet directives and test expectations (`// want ...`) do not count.
func commentLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			if text == "" || strings.HasPrefix(text, "bpvet:") || strings.HasPrefix(text, "want ") {
				continue
			}
			lines[fset.Position(c.End()).Line] = true
		}
	}
	return lines
}
