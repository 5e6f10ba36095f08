package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockedsend flags network I/O performed while a sync.Mutex or
// sync.RWMutex acquired in the same function is still held. Holding a
// lock across a Send or Dial couples every other path through that lock
// to the network's latency — the stall/deadlock shape the hardened
// messenger was built to eliminate.
//
// The analysis is per-function and lexical: lock/unlock/send events are
// processed in source order, a deferred Unlock does not release (the
// lock is held for the rest of the body), and nested function literals
// are analyzed as their own scopes. An Unlock on any path releases the
// lexical "held" state, so branch-heavy code may under-report — the
// analyzer favours precision over recall.
type lockedsend struct{}

func (lockedsend) Name() string { return "lockedsend" }
func (lockedsend) Doc() string {
	return "network I/O (Send/Dial/net.Conn writes) while a mutex acquired in the same function is held"
}

func (lockedsend) Run(p *pkgPass) {
	for _, file := range p.Files {
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			runLockedSend(p, body)
		})
	}
}

type lockEvent struct {
	pos    token.Pos
	kind   int    // 0 lock, 1 unlock, 2 send
	key    string // mutex expression, for lock/unlock
	detail string // callee description, for send
}

func runLockedSend(p *pkgPass, body *ast.BlockStmt) {
	var events []lockEvent
	inspectSameFunc(body, func(n ast.Node) bool {
		// A deferred Unlock never releases within the body; skip the
		// whole defer so its call is not treated as a release point.
		if d, ok := n.(*ast.DeferStmt); ok {
			if _, isUnlock := mutexCall(p, d.Call, "Unlock", "RUnlock"); isUnlock {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := mutexCall(p, call, "Lock", "RLock"); ok {
			events = append(events, lockEvent{pos: call.Pos(), kind: 0, key: key})
			return true
		}
		if key, ok := mutexCall(p, call, "Unlock", "RUnlock"); ok {
			events = append(events, lockEvent{pos: call.Pos(), kind: 1, key: key})
			return true
		}
		if detail, ok := networkCall(p, call); ok {
			events = append(events, lockEvent{pos: call.Pos(), kind: 2, detail: detail})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := make(map[string]token.Pos)
	for _, e := range events {
		switch e.kind {
		case 0:
			held[e.key] = e.pos
		case 1:
			delete(held, e.key)
		case 2:
			for key, lockPos := range held {
				p.Reportf(e.pos, "call to %s while %s is locked (acquired at line %d)",
					e.detail, key, p.Fset.Position(lockPos).Line)
			}
		}
	}
}

// mutexCall reports whether call is sel.<method>() on a sync.Mutex or
// sync.RWMutex for one of the given method names, returning the mutex
// expression rendered as a key.
func mutexCall(p *pkgPass, call *ast.CallExpr, methods ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	t := p.TypeOf(sel.X)
	if !isPkgType(t, "sync", "Mutex") && !isPkgType(t, "sync", "RWMutex") {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// networkCall recognizes the project's network I/O shapes: any method
// named Send, dialing (Dial/DialTimeout/DialDeadline), and Write/WriteAt
// on a net.Conn.
func networkCall(p *pkgPass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "Dial", "DialTimeout", "DialDeadline":
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Send", "Dial", "DialTimeout", "DialDeadline":
			return types.ExprString(fun), true
		case "Write", "WriteAt":
			if isPkgType(p.TypeOf(fun.X), "net", "Conn") {
				return types.ExprString(fun), true
			}
		}
	}
	return "", false
}
