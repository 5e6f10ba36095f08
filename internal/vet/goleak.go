package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goleak enforces the goroutine lifecycle contract: every `go`
// statement must have a verifiable termination path. The analyzer
// resolves each spawn to its body (function literal or module-defined
// function), follows static calls a few levels deep, and demands that
// every unbounded loop (`for` with no condition) reachable from the
// spawn either
//
//   - receives from a stop-like channel (a select case or direct
//     receive from ctx.Done(), a chan struct{}, or a channel whose name
//     says stop/done/quit/...),
//   - ranges over a channel (terminates when the producer closes it), or
//   - exits via return/break while the goroutine is WaitGroup-tracked,
//     so a hang is observable at the owner's Close/Wait.
//
// Loops with a condition are treated as bounded (busypoll separately
// polices spin-until-flag loops). A spawn whose target cannot be
// resolved inside the module — a function value, a method value, or a
// stdlib call like srv.Serve — is reported as unverifiable: wrap it in
// a literal the analyzer can see, or suppress with the reason that
// makes it safe (for example, a Close elsewhere that unblocks it).
type goleak struct{}

func (goleak) Name() string { return "goleak" }
func (goleak) Doc() string {
	return "every go statement needs a termination path (stop channel, channel range, bound, or tracked exit)"
}

// spawnDepth bounds how many static call levels below a go statement
// are searched for unbounded loops.
const spawnDepth = 6

func (goleak) RunProgram(p *progPass) {
	pr := p.Prog
	for _, node := range pr.Nodes() {
		for _, g := range node.Gos {
			root, why := spawnTarget(pr, node, g)
			if root == nil {
				p.Reportf(g.Pos(), "goroutine target %s; termination cannot be verified — spawn a module function or literal, or suppress with the reason that bounds it", why)
				continue
			}
			tracked := isTracked(root)
			for _, reached := range reachableNodes(pr, root) {
				checkSpawnLoops(p, g, root, reached, tracked)
			}
		}
	}
}

// spawnTarget resolves the function a go statement runs. The second
// result describes the failure when no module-defined body is found.
func spawnTarget(pr *program, node *funcNode, g *ast.GoStmt) (*funcNode, string) {
	fun := ast.Unparen(g.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return pr.LitNode(lit), "is an unanalyzed literal"
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = node.Pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = node.Pkg.Info.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, "is a function value"
	}
	if n := pr.NodeOf(fn); n != nil {
		return n, ""
	}
	return nil, "(" + fn.FullName() + ") is outside the module"
}

// reachableNodes returns root plus the module functions reachable from
// it through static calls and synchronous literals, to spawnDepth.
// Nested go statements are not followed: each spawn is its own root.
func reachableNodes(pr *program, root *funcNode) []*funcNode {
	seen := map[*funcNode]bool{root: true}
	frontier := []*funcNode{root}
	out := []*funcNode{root}
	for depth := 0; depth < spawnDepth && len(frontier) > 0; depth++ {
		var next []*funcNode
		for _, n := range frontier {
			for i := range n.Sites {
				for _, callee := range pr.staticCallees(&n.Sites[i]) {
					if !seen[callee] {
						seen[callee] = true
						next = append(next, callee)
						out = append(out, callee)
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// checkSpawnLoops reports every unbounded loop in reached that lacks a
// termination path, attributing it to the go statement g.
func checkSpawnLoops(p *progPass, g *ast.GoStmt, root, reached *funcNode, tracked bool) {
	info := reached.Pkg.Info
	inspectSameFunc(reached.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		hasStop, hasExit := scanLoop(info, loop)
		if hasStop || (hasExit && tracked) {
			return true
		}
		where := trimPos(p.Prog.Fset.Position(loop.Pos()))
		switch {
		case reached != root:
			p.Reportf(g.Pos(), "goroutine reaches unbounded loop in %s at %s with no stop/done receive%s",
				reached.Name(), where, exitHint(hasExit))
		default:
			p.Reportf(g.Pos(), "goroutine runs an unbounded loop at %s with no stop/done receive%s",
				where, exitHint(hasExit))
		}
		return true
	})
}

func exitHint(hasExit bool) string {
	if hasExit {
		return "; its return/break exit would count if the goroutine were WaitGroup-tracked"
	}
	return " and no return/break"
}

// scanLoop looks inside one unbounded loop (not descending into nested
// function literals) for a stop-like receive and for any exit
// statement.
func scanLoop(info *types.Info, loop *ast.ForStmt) (hasStop, hasExit bool) {
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && stopLikeChan(info, s.X) {
				hasStop = true
			}
		case *ast.ReturnStmt:
			hasExit = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				hasExit = true
			}
		}
		return true
	})
	return hasStop, hasExit
}

// stopLikeChan reports whether receiving from e is a recognizable
// termination signal: ctx.Done()-style calls, any chan struct{}, or a
// channel whose name reads as a stop signal.
func stopLikeChan(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	if t := info.TypeOf(e); t != nil {
		if ch, ok := t.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	name := ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	name = strings.ToLower(name)
	for _, kw := range []string{"stop", "done", "quit", "exit", "halt", "close", "term", "cancel"} {
		if strings.Contains(name, kw) {
			return true
		}
	}
	return false
}

// isTracked reports whether the spawned body signals its own completion
// to a sync.WaitGroup (wg.Done(), usually deferred).
func isTracked(root *funcNode) bool {
	tracked := false
	info := root.Pkg.Info
	inspectSameFunc(root.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if isPkgType(info.TypeOf(sel.X), "sync", "WaitGroup") {
			tracked = true
		}
		return true
	})
	return tracked
}
