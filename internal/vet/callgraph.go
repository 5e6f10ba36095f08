package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the whole-program layer underneath the inter-procedural
// analyzers (lockorder, goleak): a call graph over every loaded package
// with conservative cross-package edges, plus the shared flow-facts
// substrate — which mutex classes a function may hold at each call site,
// and which stop/done channels reach each go statement.
//
// The graph is deliberately lightweight. Nodes are function declarations
// and function literals; edges are resolved from three shapes:
//
//   - static calls: f(), pkg.F(), x.M() on a concrete receiver — one
//     target, resolved through go/types object identity (generics
//     resolve to their Origin declaration, so every instantiation
//     shares one node);
//   - interface dispatch: x.M() where x is a module-defined interface —
//     conservative edges to every loaded concrete method that
//     implements it (stdlib interfaces are skipped: their
//     implementations live outside the module and resolving the
//     module-side ones would only manufacture false cycles);
//   - method values: x.M referenced without being called — a
//     conservative "may be invoked later" edge, tagged so analyzers can
//     choose whether to follow it.
//
// Function values flowing through ordinary variables and fields are NOT
// tracked (the OnSuspect-style callback is invisible here); analyses on
// top of the graph are therefore under-approximate on dynamic calls and
// must say so in their docs.

// edgeKind classifies how a call edge was resolved.
type edgeKind uint8

const (
	// edgeStatic is a direct call of a declared function or method.
	edgeStatic edgeKind = iota
	// edgeInterface is interface-method dispatch, resolved to every
	// loaded concrete method implementing a module-defined interface.
	edgeInterface
	// edgeMethodValue is a method value captured without being called;
	// it may run at any later time.
	edgeMethodValue
)

func (k edgeKind) String() string {
	switch k {
	case edgeStatic:
		return "static"
	case edgeInterface:
		return "interface"
	case edgeMethodValue:
		return "method-value"
	}
	return "edge(?)"
}

// lockMode distinguishes exclusive from shared acquisition.
type lockMode uint8

const (
	// lockExclusive is Lock on a Mutex or RWMutex.
	lockExclusive lockMode = iota
	// lockShared is RLock on an RWMutex.
	lockShared
)

// heldLock is one mutex class held at a program point, with the
// position where it was acquired.
type heldLock struct {
	Class types.Object // field or variable identifying the mutex
	Mode  lockMode
	Pos   token.Pos
}

// callSite is one resolved call (or method-value capture) inside a
// function body.
type callSite struct {
	Pos  token.Pos
	Kind edgeKind
	// Targets are the resolved declared-function targets (one for
	// static edges, possibly many for interface dispatch). Generic
	// instantiations are normalized to their Origin.
	Targets []*types.Func
	// Lits are function literals invoked synchronously at this site:
	// an immediately-invoked literal, or a literal handed to
	// sync.Once.Do (which calls it before returning).
	Lits []*ast.FuncLit
	// Held are the mutex classes lexically held when the call runs.
	Held []heldLock
}

// lockUse is one direct mutex acquisition inside a function body.
type lockUse struct {
	Class types.Object
	Mode  lockMode
	Pos   token.Pos
	// Held are the classes already held when this acquisition happens —
	// the intra-procedural lock-order edges.
	Held []heldLock
}

// funcNode is one function in the program graph: a declaration (Obj set)
// or a literal (Obj nil).
type funcNode struct {
	Obj  *types.Func
	Pkg  *Package
	Body *ast.BlockStmt

	Sites []callSite
	Locks []lockUse
	// Gos are the go statements spawned from this body.
	Gos []*ast.GoStmt
}

// Name returns a printable identifier for diagnostics.
func (n *funcNode) Name() string {
	if n.Obj != nil {
		return funcDisplayName(n.Obj)
	}
	return "func literal"
}

// funcDisplayName renders pkg.Func or pkg.(Type).Method without the
// module-path noise.
func funcDisplayName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedFrom(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		name = shortPkg(f.Pkg().Path()) + "." + name
	}
	return name
}

// shortPkg trims a module-internal import path to its last element.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// lockClassName renders a mutex class as pkg.Type.field or pkg.var.
func lockClassName(obj types.Object) string {
	if obj == nil {
		return "?"
	}
	name := obj.Name()
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// Walk the package scope for the named type owning the field so
		// the class reads Type.field. Fields don't link back to their
		// struct, so search the declaring package.
		if owner := fieldOwner(v); owner != "" {
			name = owner + "." + name
		}
	}
	if obj.Pkg() != nil {
		name = shortPkg(obj.Pkg().Path()) + "." + name
	}
	return name
}

// fieldOwner finds the named type in the field's package whose struct
// carries this exact field object.
func fieldOwner(field *types.Var) string {
	pkg := field.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return obj.Name()
			}
		}
	}
	return ""
}

// program is the whole-program view the inter-procedural analyzers run
// over.
type program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// nodes indexes declared functions by their (Origin) object.
	nodes map[*types.Func]*funcNode
	// lits indexes literal nodes by their AST node.
	lits map[*ast.FuncLit]*funcNode
	// order is every node in deterministic (position) order.
	order []*funcNode

	// ifaceImpls memoizes interface-method resolution.
	ifaceImpls map[*types.Func][]*types.Func
	// namedTypes is every named type declared in the loaded packages.
	namedTypes []*types.Named

	// acquires holds the transitive may-acquire fixpoint, computed on
	// first use.
	acquires     map[*funcNode]map[types.Object]*acquisition
	acquiresDone bool
}

// acquisition explains how a function may come to hold a mutex class:
// either directly (Pos set, Via nil) or through a callee (Via set).
type acquisition struct {
	Class types.Object
	Mode  lockMode
	// Pos is the direct acquisition position (valid when Via is nil).
	Pos token.Pos
	// Via is the callee through which the acquisition is reachable,
	// and CallPos the call site in the owning function.
	Via     *funcNode
	CallPos token.Pos
}

// NodeOf returns the graph node for a declared function (following
// generic instantiations to their origin), or nil.
func (pr *program) NodeOf(f *types.Func) *funcNode {
	if f == nil {
		return nil
	}
	return pr.nodes[f.Origin()]
}

// LitNode returns the graph node for a function literal, or nil.
func (pr *program) LitNode(l *ast.FuncLit) *funcNode { return pr.lits[l] }

// Nodes returns every function node in deterministic order.
func (pr *program) Nodes() []*funcNode { return pr.order }

// buildProgram constructs the call graph and flow facts for the loaded
// packages.
func buildProgram(pkgs []*Package) *program {
	pr := &program{
		Pkgs:       pkgs,
		nodes:      make(map[*types.Func]*funcNode),
		lits:       make(map[*ast.FuncLit]*funcNode),
		ifaceImpls: make(map[*types.Func][]*types.Func),
		acquires:   make(map[*funcNode]map[types.Object]*acquisition),
	}
	if len(pkgs) > 0 {
		pr.Fset = pkgs[0].Fset
	}

	// pkgPass 1: create a node per function declaration and literal, and
	// collect the named types for interface resolution.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					pr.namedTypes = append(pr.namedTypes, named)
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						return true
					}
					if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						node := &funcNode{Obj: obj, Pkg: pkg, Body: d.Body}
						pr.nodes[obj] = node
						pr.order = append(pr.order, node)
					}
				case *ast.FuncLit:
					node := &funcNode{Pkg: pkg, Body: d.Body}
					pr.lits[d] = node
					pr.order = append(pr.order, node)
				}
				return true
			})
		}
	}
	sort.Slice(pr.order, func(i, j int) bool { return pr.order[i].Body.Pos() < pr.order[j].Body.Pos() })

	// pkgPass 2: resolve call sites and lock facts per body.
	for _, node := range pr.order {
		pr.analyzeBody(node)
	}
	return pr
}

// moduleInterface reports whether the interface owning method m is
// declared inside one of the loaded packages (as opposed to the
// standard library).
func (pr *program) moduleInterface(m *types.Func) bool {
	pkg := m.Pkg()
	if pkg == nil {
		return false
	}
	for _, p := range pr.Pkgs {
		if p.Types == pkg {
			return true
		}
	}
	return false
}

// implementersOf resolves an interface method to the loaded concrete
// methods that implement it.
func (pr *program) implementersOf(m *types.Func) []*types.Func {
	if impls, ok := pr.ifaceImpls[m]; ok {
		return impls
	}
	var impls []*types.Func
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		pr.ifaceImpls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		pr.ifaceImpls[m] = nil
		return nil
	}
	for _, named := range pr.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if target := pr.nodes[fn.Origin()]; target != nil {
				impls = append(impls, fn.Origin())
			}
		}
	}
	pr.ifaceImpls[m] = impls
	return impls
}

// bodyEvent is one lock/unlock/call/method-value occurrence, ordered by
// position to reconstruct the lexical lock state.
type bodyEvent struct {
	pos    token.Pos
	kind   int // 0 lock, 1 unlock, 2 call, 3 method value
	class  types.Object
	mode   lockMode
	call   *ast.CallExpr
	target *types.Func // method-value target (kind 3)
}

// analyzeBody walks one function body (not descending into nested
// literals — those are their own nodes) and fills in Sites, Locks, Gos.
func (pr *program) analyzeBody(node *funcNode) {
	info := node.Pkg.Info
	var events []bodyEvent
	// ast.Inspect visits parents before children, so these sets are
	// populated before the nodes they classify are reached.
	goCalls := make(map[*ast.CallExpr]bool) // spawned on another goroutine
	callFuns := make(map[ast.Expr]bool)     // selectors in call position

	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.GoStmt:
			node.Gos = append(node.Gos, x)
			// The spawned call runs on another goroutine: no lock or
			// ordering facts flow into it synchronously. Its arguments
			// are still evaluated here, so keep walking.
			goCalls[x.Call] = true
			return true
		case *ast.DeferStmt:
			// A deferred Unlock never releases within the body; skip
			// the whole call so it is not treated as a release point.
			_, _, ok := mutexMethod(info, x.Call, false)
			return !ok
		case *ast.CallExpr:
			callFuns[ast.Unparen(x.Fun)] = true
			if goCalls[x] {
				return true
			}
			if cls, mode, ok := mutexMethod(info, x, true); ok {
				events = append(events, bodyEvent{pos: x.Pos(), kind: 0, class: cls, mode: mode})
				return true
			}
			if cls, _, ok := mutexMethod(info, x, false); ok {
				events = append(events, bodyEvent{pos: x.Pos(), kind: 1, class: cls})
				return true
			}
			events = append(events, bodyEvent{pos: x.Pos(), kind: 2, call: x})
			return true
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			// A method referenced outside call position is a method
			// value that may run later.
			if fn := methodValueTarget(info, x); fn != nil {
				events = append(events, bodyEvent{pos: x.Pos(), kind: 3, target: fn})
			}
			return true
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Replay in source order, maintaining the lexically-held set. An
	// Unlock on any path releases (favouring precision over recall,
	// same as lockedsend); a deferred Unlock was skipped above so the
	// lock stays held to the end of the body.
	var held []heldLock
	snapshot := func() []heldLock {
		if len(held) == 0 {
			return nil
		}
		return append([]heldLock(nil), held...)
	}
	for _, e := range events {
		switch e.kind {
		case 0:
			node.Locks = append(node.Locks, lockUse{Class: e.class, Mode: e.mode, Pos: e.pos, Held: snapshot()})
			held = append(held, heldLock{Class: e.class, Mode: e.mode, Pos: e.pos})
		case 1:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].Class == e.class {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case 2:
			site := callSite{Pos: e.pos, Held: snapshot()}
			pr.resolveCall(node, e.call, &site)
			if len(site.Targets) > 0 || len(site.Lits) > 0 {
				node.Sites = append(node.Sites, site)
			}
		case 3:
			node.Sites = append(node.Sites, callSite{
				Pos: e.pos, Kind: edgeMethodValue,
				Targets: []*types.Func{e.target.Origin()},
				Held:    snapshot(),
			})
		}
	}
}

// resolveCall fills site.Targets/Lits/Kind for one call expression.
func (pr *program) resolveCall(node *funcNode, call *ast.CallExpr, site *callSite) {
	info := node.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: synchronous.
		site.Kind = edgeStatic
		site.Lits = append(site.Lits, fun)
		return
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			site.Kind = edgeStatic
			site.Targets = []*types.Func{fn.Origin()}
		}
		return
	case *ast.SelectorExpr:
		// sync.Once.Do invokes its argument synchronously — treat the
		// literal (or named function) argument as called here.
		if isPkgType(info.TypeOf(fun.X), "sync", "Once") && fun.Sel.Name == "Do" && len(call.Args) == 1 {
			switch arg := ast.Unparen(call.Args[0]).(type) {
			case *ast.FuncLit:
				site.Kind = edgeStatic
				site.Lits = append(site.Lits, arg)
			case *ast.Ident:
				if fn, ok := info.Uses[arg].(*types.Func); ok {
					site.Kind = edgeStatic
					site.Targets = []*types.Func{fn.Origin()}
				}
			}
			return
		}
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				if !pr.moduleInterface(fn) {
					return // stdlib interface: implementations unknowable
				}
				site.Kind = edgeInterface
				site.Targets = pr.implementersOf(fn)
				return
			}
		}
		site.Kind = edgeStatic
		site.Targets = []*types.Func{fn.Origin()}
	}
}

// methodValueTarget reports the concrete declared method captured by a
// method-value expression, or nil. Interface method values are skipped
// (the dynamic target is unknowable without value tracking).
func methodValueTarget(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	if types.IsInterface(s.Recv()) {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// mutexMethod reports whether call is a Lock/RLock (acquire=true) or
// Unlock/RUnlock (acquire=false) on a sync.Mutex or RWMutex, resolving
// the mutex to a stable class object (a struct field or variable).
// Mutexes reached through expressions with no object identity (map
// entries, function results) return ok=false — they cannot be matched
// across functions.
func mutexMethod(info *types.Info, call *ast.CallExpr, acquire bool) (types.Object, lockMode, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	var mode lockMode
	switch sel.Sel.Name {
	case "Lock":
		mode = lockExclusive
		if !acquire {
			return nil, 0, false
		}
	case "RLock":
		mode = lockShared
		if !acquire {
			return nil, 0, false
		}
	case "Unlock", "RUnlock":
		if acquire {
			return nil, 0, false
		}
	default:
		return nil, 0, false
	}
	t := info.TypeOf(sel.X)
	if !isPkgType(t, "sync", "Mutex") && !isPkgType(t, "sync", "RWMutex") {
		return nil, 0, false
	}
	cls := lockClassObj(info, sel.X)
	if cls == nil {
		return nil, 0, false
	}
	return cls, mode, true
}

// lockClassObj resolves the mutex expression to its identity object: a
// struct field (same field across all instances — the standard lock
// class abstraction) or a variable.
func lockClassObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	}
	return nil
}

// Acquires returns the transitive may-acquire set of a node: every
// mutex class the function may lock while executing, directly or
// through static and synchronous-literal callees. Interface and
// method-value edges are excluded here — following them would make
// nearly everything acquire nearly everything; lockorder follows them
// one level explicitly instead.
func (pr *program) Acquires(node *funcNode) map[types.Object]*acquisition {
	pr.computeAcquires()
	return pr.acquires[node]
}

// staticCallees resolves one site's synchronous callees to graph nodes.
func (pr *program) staticCallees(site *callSite) []*funcNode {
	if site.Kind != edgeStatic {
		return nil
	}
	var callees []*funcNode
	for _, t := range site.Targets {
		if n := pr.NodeOf(t); n != nil {
			callees = append(callees, n)
		}
	}
	for _, l := range site.Lits {
		if n := pr.LitNode(l); n != nil {
			callees = append(callees, n)
		}
	}
	return callees
}

// computeAcquires runs the may-acquire fixpoint over the whole graph,
// so recursion and mutual recursion converge instead of being cut off.
func (pr *program) computeAcquires() {
	if pr.acquiresDone {
		return
	}
	pr.acquiresDone = true
	for _, n := range pr.order {
		out := make(map[types.Object]*acquisition)
		for i := range n.Locks {
			l := &n.Locks[i]
			if _, ok := out[l.Class]; !ok {
				out[l.Class] = &acquisition{Class: l.Class, Mode: l.Mode, Pos: l.Pos}
			}
		}
		pr.acquires[n] = out
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pr.order {
			out := pr.acquires[n]
			for i := range n.Sites {
				site := &n.Sites[i]
				for _, callee := range pr.staticCallees(site) {
					for cls, acq := range pr.acquires[callee] {
						if _, ok := out[cls]; !ok {
							out[cls] = &acquisition{Class: cls, Mode: acq.Mode, Via: callee, CallPos: site.Pos}
							changed = true
						}
					}
				}
			}
		}
	}
}

// AcquirePath renders the chain from a function to a concrete
// acquisition for diagnostics: "via X (file:line) via Y (file:line)".
func (pr *program) AcquirePath(node *funcNode, cls types.Object) string {
	var b strings.Builder
	seen := map[*funcNode]bool{}
	for node != nil && !seen[node] {
		seen[node] = true
		acq := pr.Acquires(node)[cls]
		if acq == nil {
			break
		}
		if acq.Via == nil {
			pos := pr.Fset.Position(acq.Pos)
			b.WriteString("locked at ")
			b.WriteString(trimPos(pos))
			return b.String()
		}
		pos := pr.Fset.Position(acq.CallPos)
		b.WriteString("via ")
		b.WriteString(acq.Via.Name())
		b.WriteString(" (")
		b.WriteString(trimPos(pos))
		b.WriteString(") ")
		node = acq.Via
	}
	return strings.TrimSpace(b.String())
}

// trimPos renders file:line with the file shortened to its base name —
// program-level diagnostics span packages, full paths drown the signal.
func trimPos(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(pos.Line)
}
