package vet

import (
	"go/ast"
	"go/types"
)

// nakedgo flags go statements whose spawned function lacks a deferred
// recover. The hardened message path contains handler panics to the
// envelope that caused them (DESIGN.md §5); this rule extends the same
// discipline to every goroutine: one panicking task must never take the
// whole process down.
//
// Accepted containment shapes:
//
//	go func() { defer func() { recover() ... }(); ... }()
//	go worker()   // where worker's body defers a recover, or defers a
//	              // call to a same-package function that calls recover
//
// Goroutines whose target cannot be resolved within the package are
// flagged too — containment that cannot be verified is containment that
// the next refactor silently loses.
type nakedgo struct{}

func (nakedgo) Name() string { return "nakedgo" }
func (nakedgo) Doc() string {
	return "go statement spawning a function without a deferred recover (panic containment)"
}

func (nakedgo) Run(p *pkgPass) {
	decls := packageFuncDecls(p)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := g.Call.Fun.(type) {
			case *ast.FuncLit:
				if !hasDeferredRecover(p, decls, fun.Body) {
					p.Reportf(g.Pos(), "goroutine body has no deferred recover; contain panics before spawning")
				}
			default:
				decl := resolveFuncDecl(p, decls, g.Call.Fun)
				if decl == nil {
					p.Reportf(g.Pos(), "cannot verify panic containment of %s: spawn a func literal with a deferred recover", types.ExprString(fun))
				} else if !hasDeferredRecover(p, decls, decl.Body) {
					p.Reportf(g.Pos(), "goroutine %s has no deferred recover; contain panics before spawning", decl.Name.Name)
				}
			}
			return true
		})
	}
}

// packageFuncDecls maps every function object declared in the package to
// its declaration.
func packageFuncDecls(p *pkgPass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// resolveFuncDecl resolves a call target to a same-package declaration.
func resolveFuncDecl(p *pkgPass, decls map[*types.Func]*ast.FuncDecl, fun ast.Expr) *ast.FuncDecl {
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	obj, ok := p.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return decls[obj]
}

// hasDeferredRecover reports whether body defers a recover, either as a
// func literal calling recover or as a call to a same-package function
// whose body calls recover directly.
func hasDeferredRecover(p *pkgPass, decls map[*types.Func]*ast.FuncDecl, body ast.Node) bool {
	found := false
	inspectSameFunc(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		switch fun := d.Call.Fun.(type) {
		case *ast.FuncLit:
			if containsRecover(p.Info, fun.Body) {
				found = true
			}
		default:
			if decl := resolveFuncDecl(p, decls, d.Call.Fun); decl != nil && containsRecover(p.Info, decl.Body) {
				found = true
			}
		}
		return !found
	})
	return found
}
