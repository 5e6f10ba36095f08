package topology

import (
	"testing"
	"testing/quick"
)

func TestStarShape(t *testing.T) {
	s := Star(8)
	if s.N != 8 || s.Base != 0 {
		t.Fatalf("N=%d Base=%d", s.N, s.Base)
	}
	if len(s.Peers(0)) != 7 {
		t.Fatalf("center degree = %d", len(s.Peers(0)))
	}
	for i := 1; i < 8; i++ {
		if len(s.Peers(i)) != 1 || s.Peers(i)[0] != 0 {
			t.Fatalf("leaf %d peers = %v", i, s.Peers(i))
		}
	}
	if depth(s) != 1 || s.edgeCount() != 7 || !connected(s) {
		t.Fatalf("depth=%d edges=%d", depth(s), s.edgeCount())
	}
}

func TestLineShape(t *testing.T) {
	l := Line(5)
	if len(l.Peers(0)) != 1 || len(l.Peers(4)) != 1 {
		t.Fatal("end nodes must have one peer")
	}
	for i := 1; i < 4; i++ {
		if len(l.Peers(i)) != 2 {
			t.Fatalf("inner node %d degree = %d", i, len(l.Peers(i)))
		}
	}
	if depth(l) != 4 || l.edgeCount() != 4 {
		t.Fatalf("depth=%d edges=%d", depth(l), l.edgeCount())
	}
}

func TestTreeShape(t *testing.T) {
	// Binary tree with 7 nodes: root 0, children 1,2; grandchildren 3..6.
	tr := Tree(7, 2)
	if len(tr.Peers(0)) != 2 {
		t.Fatalf("root degree = %d", len(tr.Peers(0)))
	}
	if len(tr.Peers(1)) != 3 { // parent + two children
		t.Fatalf("internal degree = %d", len(tr.Peers(1)))
	}
	if len(tr.Peers(6)) != 1 {
		t.Fatalf("leaf degree = %d", len(tr.Peers(6)))
	}
	if depth(tr) != 2 {
		t.Fatalf("depth = %d", depth(tr))
	}
	dist := tr.BFS(0)
	want := []int{0, 1, 1, 2, 2, 2, 2}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("BFS = %v", dist)
		}
	}
}

func TestTreeLevels(t *testing.T) {
	if TreeLevels(2, 0) != 1 || TreeLevels(2, 1) != 3 || TreeLevels(2, 2) != 7 {
		t.Fatal("binary TreeLevels wrong")
	}
	if TreeLevels(3, 2) != 13 {
		t.Fatalf("TreeLevels(3,2) = %d", TreeLevels(3, 2))
	}
}

func TestTreeKFloor(t *testing.T) {
	tr := Tree(4, 0) // clamped to k=1: a line
	if depth(tr) != 3 {
		t.Fatalf("k=0 tree depth = %d", depth(tr))
	}
}

func TestSingleNode(t *testing.T) {
	for _, tp := range []*Topology{Star(1), Line(1), Tree(1, 2), Random(1, 3, 1)} {
		if tp.N != 1 || len(tp.Peers(0)) != 0 || !connected(tp) || depth(tp) != 0 {
			t.Fatalf("%s: single-node invariants broken", tp.Name)
		}
	}
}

func TestRandomConnectedAndDeterministic(t *testing.T) {
	a := Random(40, 4, 7)
	b := Random(40, 4, 7)
	if !connected(a) {
		t.Fatal("random graph disconnected")
	}
	if a.edgeCount() != b.edgeCount() {
		t.Fatal("random graph not deterministic")
	}
	for i := 0; i < a.N; i++ {
		pa, pb := a.Peers(i), b.Peers(i)
		if len(pa) != len(pb) {
			t.Fatal("random graph not deterministic")
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("random graph not deterministic")
			}
		}
	}
	c := Random(40, 4, 8)
	if c.edgeCount() == a.edgeCount() && sameAdj(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func sameAdj(a, b *Topology) bool {
	for i := 0; i < a.N; i++ {
		pa, pb := a.Peers(i), b.Peers(i)
		if len(pa) != len(pb) {
			return false
		}
		for j := range pa {
			if pa[j] != pb[j] {
				return false
			}
		}
	}
	return true
}

// Properties that must hold for every generated topology.
func TestTopologyProperties(t *testing.T) {
	check := func(nSeed, kSeed uint8) bool {
		n := int(nSeed%48) + 1
		k := int(kSeed%5) + 1
		for _, tp := range []*Topology{Star(n), Line(n), Tree(n, k), Random(n, k, int64(nSeed)*100+int64(kSeed))} {
			if !connected(tp) {
				return false
			}
			// Symmetry: i in adj[j] <=> j in adj[i]; no self-loops.
			for i := 0; i < tp.N; i++ {
				for _, j := range tp.Peers(i) {
					if j == i {
						return false
					}
					found := false
					for _, back := range tp.Peers(j) {
						if back == i {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
			// Degree sum = 2 * edges.
			sum := 0
			for i := 0; i < tp.N; i++ {
				sum += len(tp.Peers(i))
			}
			if sum != 2*tp.edgeCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSUnreachable(t *testing.T) {
	// A two-node topology with no edges (constructed directly).
	tp := newTopology("disc", 2)
	dist := tp.BFS(0)
	if dist[1] != -1 || connected(tp) {
		t.Fatal("unreachable node not detected")
	}
}

// depth returns the maximum hop distance from the base to any node.
func depth(t *Topology) int {
	max := 0
	for _, d := range t.BFS(t.Base) {
		if d > max {
			max = d
		}
	}
	return max
}

// connected reports whether every node is reachable from the base.
func connected(t *Topology) bool {
	for _, d := range t.BFS(t.Base) {
		if d < 0 {
			return false
		}
	}
	return true
}
