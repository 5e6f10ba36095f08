// Package topology builds the logical network layouts of the paper's
// evaluation: Star, Tree and Line (§4.3), plus a seeded random graph for
// additional experiments. A topology is an adjacency structure over node
// indices 0..N-1 with a designated base node that issues queries.
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Topology is a logical peer graph.
type Topology struct {
	// Name describes the layout, e.g. "star(32)".
	Name string
	// N is the number of nodes.
	N int
	// Base is the query-issuing node.
	Base int
	// adj holds each node's direct peers in ascending order.
	adj [][]int
}

// Peers returns node i's direct peers. The slice must not be mutated.
func (t *Topology) Peers(i int) []int { return t.adj[i] }

// edgeCount returns the total number of undirected edges.
func (t *Topology) edgeCount() int {
	total := 0
	for _, p := range t.adj {
		total += len(p)
	}
	return total / 2
}

// connect adds an undirected edge.
func (t *Topology) connect(a, b int) {
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

func (t *Topology) sortAdj() {
	for i := range t.adj {
		sort.Ints(t.adj[i])
	}
}

func newTopology(name string, n int) *Topology {
	return &Topology{Name: name, N: n, adj: make([][]int, n)}
}

// Star builds the paper's Star layout: node 0 is the base and every other
// node connects directly to it.
func Star(n int) *Topology {
	t := newTopology(fmt.Sprintf("star(%d)", n), n)
	for i := 1; i < n; i++ {
		t.connect(0, i)
	}
	t.sortAdj()
	return t
}

// Line builds the paper's Line layout: nodes in a chain, each with two
// peers except the ends; the base is the leftmost node.
func Line(n int) *Topology {
	t := newTopology(fmt.Sprintf("line(%d)", n), n)
	for i := 0; i+1 < n; i++ {
		t.connect(i, i+1)
	}
	t.sortAdj()
	return t
}

// Tree builds a complete k-ary tree with n nodes filled level by level;
// the root (node 0) is the base. Every internal node has up to k
// children, matching the paper's Tree layout where each non-leaf node has
// k directly connected peers.
func Tree(n, k int) *Topology {
	if k < 1 {
		k = 1
	}
	t := newTopology(fmt.Sprintf("tree(%d,k=%d)", n, k), n)
	for i := 1; i < n; i++ {
		parent := (i - 1) / k
		t.connect(parent, i)
	}
	t.sortAdj()
	return t
}

// TreeLevels returns the number of nodes in a complete k-ary tree of the
// given depth (levels below the root; level 0 is just the root).
func TreeLevels(k, levels int) int {
	n, width := 1, 1
	for l := 0; l < levels; l++ {
		width *= k
		n += width
	}
	return n
}

// BFS returns hop distances from start to every node (-1 if unreachable).
func (t *Topology) BFS(start int) []int {
	dist := make([]int, t.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Random builds a connected random graph: a random spanning tree plus
// extra edges until the average degree approaches degree. Deterministic
// for a given seed.
func Random(n, degree int, seed int64) *Topology {
	t := newTopology(fmt.Sprintf("random(%d,deg=%d,seed=%d)", n, degree, seed), n)
	if n <= 1 {
		return t
	}
	rng := rand.New(rand.NewSource(seed))
	// Spanning tree: attach each node to a random earlier node.
	for i := 1; i < n; i++ {
		t.connect(rng.Intn(i), i)
	}
	has := func(a, b int) bool {
		for _, v := range t.adj[a] {
			if v == b {
				return true
			}
		}
		return false
	}
	wantEdges := n * degree / 2
	for tries := 0; t.edgeCount() < wantEdges && tries < n*degree*10; tries++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || has(a, b) {
			continue
		}
		t.connect(a, b)
	}
	t.sortAdj()
	return t
}
