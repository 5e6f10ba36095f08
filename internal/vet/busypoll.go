package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// busypoll flags time.Sleep inside a loop. Sleep-in-a-loop is either a
// poll (burns CPU and adds latency — wait on a channel, timer or
// condition instead) or an uninterruptible backoff (a closing component
// stalls for the full wait — select on a stop channel instead). The
// faultnet package is exempt: injecting delay is its purpose.
type busypoll struct{}

func (busypoll) Name() string { return "busypoll" }
func (busypoll) Doc() string {
	return "time.Sleep inside a loop; wait on a channel or select on a stop channel instead"
}

func (b busypoll) Run(p *pkgPass) {
	if strings.Contains(p.PkgPath, "faultnet") {
		return
	}
	for _, file := range p.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isTimeSleep(p, call) {
				return
			}
			if enclosingLoop(stack) {
				p.Reportf(call.Pos(), "time.Sleep in a loop; select on a stop channel or timer instead")
			}
		})
	}
}

// isTimeSleep reports whether call is time.Sleep from the time package.
func isTimeSleep(p *pkgPass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sleep" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if pkg, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pkg.Imported().Path() == "time"
	}
	return false
}

// enclosingLoop reports whether the innermost enclosing for/range
// statement is inside the same function as the node.
func enclosingLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
