package vet

import (
	"go/types"
	"testing"
)

const cgPath = "bestpeer/internal/vet/testdata/src/callgraph"

// loadCallgraph builds the program over the two-package callgraph
// fixture (parent + leaf), exercising cross-package loading.
func loadCallgraph(t *testing.T) *program {
	t.Helper()
	pkgs, err := Load(".", []string{"testdata/src/callgraph/..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (callgraph + leaf)", len(pkgs))
	}
	return buildProgram(pkgs)
}

// targetsOf resolves every target of every site in fn to graph nodes.
func targetsOf(pr *program, fn *funcNode) map[*funcNode]edgeKind {
	out := make(map[*funcNode]edgeKind)
	for i := range fn.Sites {
		site := &fn.Sites[i]
		for _, t := range site.Targets {
			if n := pr.NodeOf(t); n != nil {
				out[n] = site.Kind
			}
		}
		for _, l := range site.Lits {
			if n := pr.LitNode(l); n != nil {
				out[n] = site.Kind
			}
		}
	}
	return out
}

// TestCallGraphEdges is the table-driven contract for the substrate:
// each named caller must have an edge of the right kind to each named
// callee.
func TestCallGraphEdges(t *testing.T) {
	pr := loadCallgraph(t)
	cases := []struct {
		caller string
		callee string
		kind   edgeKind
	}{
		// Generic instantiations — int and string — share one node.
		{"CallsGeneric", "Generic", edgeStatic},
		// Module-defined interface dispatch fans out to every
		// implementation.
		{"UseIface", "English.Greet", edgeInterface},
		{"UseIface", "French.Greet", edgeInterface},
		// A method value is a may-run-later edge.
		{"MethodVal", "English.Greet", edgeMethodValue},
	}
	for _, c := range cases {
		caller := funcByName(pr, cgPath, c.caller)
		if caller == nil {
			t.Fatalf("no node for %s", c.caller)
		}
		callee := funcByName(pr, cgPath, c.callee)
		if callee == nil {
			t.Fatalf("no node for %s", c.callee)
		}
		kind, ok := targetsOf(pr, caller)[callee]
		if !ok {
			t.Errorf("%s: no edge to %s", c.caller, c.callee)
			continue
		}
		if kind != c.kind {
			t.Errorf("%s -> %s: edge kind %v, want %v", c.caller, c.callee, kind, c.kind)
		}
	}
}

// TestCallGraphGenericsShareNode pins that both instantiations of
// Generic resolve to a single origin node (two sites, one target).
func TestCallGraphGenericsShareNode(t *testing.T) {
	pr := loadCallgraph(t)
	caller := funcByName(pr, cgPath, "CallsGeneric")
	if caller == nil {
		t.Fatal("no node for CallsGeneric")
	}
	if len(caller.Sites) != 2 {
		t.Fatalf("CallsGeneric has %d sites, want 2", len(caller.Sites))
	}
	generic := funcByName(pr, cgPath, "Generic")
	for i := range caller.Sites {
		callees := pr.staticCallees(&caller.Sites[i])
		if len(callees) != 1 || callees[0] != generic {
			t.Errorf("site %d resolves to %v, want the single Generic origin node", i, callees)
		}
	}
}

// TestCallGraphCrossPackage pins exported-function resolution across
// package boundaries: callgraph.Cross -> leaf.Add.
func TestCallGraphCrossPackage(t *testing.T) {
	pr := loadCallgraph(t)
	caller := funcByName(pr, cgPath, "Cross")
	add := funcByName(pr, cgPath+"/leaf", "Add")
	if caller == nil || add == nil {
		t.Fatalf("missing nodes: Cross=%v leaf.Add=%v", caller, add)
	}
	if _, ok := targetsOf(pr, caller)[add]; !ok {
		t.Error("Cross has no static edge to leaf.Add")
	}
}

// TestCallGraphImmediateLiteral pins that an immediately-invoked
// literal is a synchronous edge to its own node.
func TestCallGraphImmediateLiteral(t *testing.T) {
	pr := loadCallgraph(t)
	caller := funcByName(pr, cgPath, "Immediate")
	if caller == nil {
		t.Fatal("no node for Immediate")
	}
	if len(caller.Sites) != 1 || len(caller.Sites[0].Lits) != 1 {
		t.Fatalf("Immediate sites = %+v, want one literal site", caller.Sites)
	}
	if n := pr.LitNode(caller.Sites[0].Lits[0]); n == nil || n.Body == nil {
		t.Error("literal site does not resolve to a literal node")
	}
}

// funcByName finds a declared function node by its package path and name
// ("Func" or "Type.Method").
func funcByName(pr *program, pkgPath, name string) *funcNode {
	for _, n := range pr.order {
		if n.Obj == nil || n.Pkg == nil || n.Pkg.Path != pkgPath {
			continue
		}
		got := n.Obj.Name()
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedFrom(sig.Recv().Type()); named != nil {
				got = named.Obj().Name() + "." + got
			}
		}
		if got == name {
			return n
		}
	}
	return nil
}
