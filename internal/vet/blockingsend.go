package vet

import (
	"go/ast"
	"strings"
)

// blockingsend enforces the "Send never blocks" invariant on the message
// path: in internal/transport and internal/core, every channel send must
// sit in a select that has an escape hatch — a default case or a timeout
// case — so a full queue or an absent receiver can never wedge a reader
// goroutine or a caller.
//
// A send that is select-guarded only by a shutdown channel still blocks
// for the whole life of the process; such sends need an explicit
// //bpvet:ignore blockingsend rationale stating what bounds them.
type blockingsend struct{}

func (blockingsend) Name() string { return "blockingsend" }
func (blockingsend) Doc() string {
	return "channel send on the message path without a select default or timeout case"
}

func (b blockingsend) Run(p *pkgPass) {
	if !b.applies(p.PkgPath) {
		return
	}
	for _, file := range p.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return
			}
			if sel := guardingSelect(send, stack); sel != nil {
				if selectHasEscape(sel) {
					return
				}
				p.Reportf(send.Pos(), "channel send in select without default or timeout case; a vanished receiver blocks forever")
				return
			}
			p.Reportf(send.Pos(), "unguarded channel send; use select with default or timeout (Send never blocks)")
		})
	}
}

// applies restricts the rule to the message path (and to the analyzer's
// own test fixtures).
func (blockingsend) applies(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/transport") ||
		strings.Contains(pkgPath, "internal/core") ||
		strings.Contains(pkgPath, "testdata/src/blockingsend")
}

// guardingSelect returns the select statement whose comm clause IS this
// send (not merely a select the send is nested under in a case body).
func guardingSelect(send *ast.SendStmt, stack []ast.Node) *ast.SelectStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if clause, ok := stack[i].(*ast.CommClause); ok && clause.Comm == send {
			for j := i - 1; j >= 0; j-- {
				if sel, ok := stack[j].(*ast.SelectStmt); ok {
					return sel
				}
			}
		}
		// Crossing a function literal boundary means the send belongs to
		// a different execution context than any enclosing select.
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return nil
		}
	}
	return nil
}

// selectHasEscape reports whether the select has a default case or a
// case receiving from a timeout source (time.After/time.Tick or a
// Timer/Ticker .C channel).
func selectHasEscape(sel *ast.SelectStmt) bool {
	for _, stmt := range sel.Body.List {
		clause, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			return true // default case
		}
		if recvIsTimeout(clause.Comm) {
			return true
		}
	}
	return false
}

// recvIsTimeout recognizes `<-time.After(d)`, `<-time.Tick(d)` and
// `<-t.C` receive cases.
func recvIsTimeout(comm ast.Stmt) bool {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	un, ok := expr.(*ast.UnaryExpr)
	if !ok {
		return false
	}
	switch x := un.X.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "After" || sel.Sel.Name == "Tick"
		}
	case *ast.SelectorExpr:
		return x.Sel.Name == "C"
	}
	return false
}
