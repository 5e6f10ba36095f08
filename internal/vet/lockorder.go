package vet

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder is the inter-procedural deadlock analyzer. It builds a
// lock-acquisition graph over every sync.Mutex/RWMutex class in the
// program (a class is one struct field or variable — the same field
// across all instances is one class) and reports two shapes:
//
//   - re-entry: a call made while holding a class into a function that
//     may acquire the same class again (self-deadlock on a
//     non-reentrant mutex), including the intra-function case of
//     locking a class twice;
//   - cycles: class A is acquired while B is held on one path and B
//     while A is held on another — the classic AB/BA inversion. Each
//     cycle is reported once, at its lexically-first witness edge, with
//     the full path so the inversion can be read off the message. When
//     several cycles exist the report is ranked: shorter cycles (more
//     likely real) print lower rank numbers.
//
// The analysis follows static calls, synchronously-invoked function
// literals (including sync.Once.Do) and module-defined interface
// dispatch. It cannot see function values flowing through fields or
// parameters (callbacks), so callback-driven inversions are out of
// scope — keep callbacks lock-free, as Options.OnSuspect documents.
// RLock-under-RLock re-entry on the same RWMutex is not reported
// (legal, if inadvisable); every combination involving an exclusive
// Lock is.
type lockorder struct{}

func (lockorder) Name() string { return "lockorder" }
func (lockorder) Doc() string {
	return "inter-procedural lock-order cycles and same-mutex re-entry (potential deadlocks)"
}

// lockEdgeKey identifies one ordered pair of lock classes.
type lockEdgeKey struct{ from, to types.Object }

// lockEdge is one ordered acquisition: to was (or may be) acquired
// while from was held. node/at witness the edge.
type lockEdge struct {
	from, to types.Object
	node     *funcNode
	pos      token.Pos // witness position in node
	seq      int       // insertion order, for deterministic reports
	via      string    // non-empty when the acquisition is inside a callee
}

func (lockorder) RunProgram(p *progPass) {
	pr := p.Prog
	edges := make(map[lockEdgeKey]*lockEdge)
	var order []lockEdgeKey
	addEdge := func(from, to types.Object, node *funcNode, pos token.Pos, via string) {
		if from == to {
			// Same class on both ends (shared/shared re-entry, which is
			// legal): not an ordering edge.
			return
		}
		k := lockEdgeKey{from, to}
		if _, ok := edges[k]; ok {
			return
		}
		edges[k] = &lockEdge{from: from, to: to, node: node, pos: pos, seq: len(order), via: via}
		order = append(order, k)
	}

	for _, node := range pr.Nodes() {
		// Intra-function: a direct acquisition while something is held.
		for i := range node.Locks {
			use := &node.Locks[i]
			for _, h := range use.Held {
				if h.Class == use.Class {
					if h.Mode == lockShared && use.Mode == lockShared {
						continue
					}
					p.Reportf(use.Pos, "%s acquired again while already held (locked at %s): self-deadlock",
						lockClassName(use.Class), trimPos(pr.Fset.Position(h.Pos)))
					continue
				}
				addEdge(h.Class, use.Class, node, use.Pos, "")
			}
		}
		// Inter-procedural: a call while holding, into a function that
		// may acquire.
		for i := range node.Sites {
			site := &node.Sites[i]
			if len(site.Held) == 0 || site.Kind == edgeMethodValue {
				continue
			}
			targets := pr.staticCallees(site)
			if site.Kind == edgeInterface {
				for _, t := range site.Targets {
					if n := pr.NodeOf(t); n != nil {
						targets = append(targets, n)
					}
				}
			}
			for _, callee := range targets {
				for cls, acq := range pr.Acquires(callee) {
					conflict := false
					for _, h := range site.Held {
						if h.Class != cls {
							continue
						}
						if h.Mode == lockShared && acq.Mode == lockShared {
							continue
						}
						conflict = true
					}
					if conflict {
						p.Reportf(site.Pos, "call to %s while holding %s, which it may acquire again (%s): self-deadlock",
							callee.Name(), lockClassName(cls), pr.AcquirePath(callee, cls))
						continue
					}
					for _, h := range site.Held {
						addEdge(h.Class, cls, node, site.Pos,
							fmt.Sprintf("%s, %s", callee.Name(), pr.AcquirePath(callee, cls)))
					}
				}
			}
		}
	}

	reportLockCycles(p, edges, order)
}

// reportLockCycles finds cycles among distinct lock classes and reports
// each once, ranked by length (shorter first).
func reportLockCycles(p *progPass, edges map[lockEdgeKey]*lockEdge, order []lockEdgeKey) {
	pr := p.Prog
	succ := make(map[types.Object][]*lockEdge)
	for _, k := range order {
		e := edges[k]
		succ[e.from] = append(succ[e.from], e)
	}

	type cycle struct {
		path []*lockEdge
		key  string
	}
	var cycles []cycle
	seen := make(map[string]bool)

	// From each edge, a breadth-first search for a shortest path back
	// to the edge's origin class. Lock graphs here are tiny (tens of
	// classes), so this stays cheap.
	for _, k := range order {
		start := edges[k]
		type qItem struct {
			at   types.Object
			path []*lockEdge
		}
		var best []*lockEdge
		visited := map[types.Object]bool{start.to: true}
		queue := []qItem{{at: start.to, path: []*lockEdge{start}}}
		for len(queue) > 0 && best == nil {
			item := queue[0]
			queue = queue[1:]
			for _, e := range succ[item.at] {
				if e.to == start.from {
					best = append(append([]*lockEdge(nil), item.path...), e)
					break
				}
				if visited[e.to] || len(item.path) >= 6 {
					continue
				}
				visited[e.to] = true
				queue = append(queue, qItem{at: e.to, path: append(append([]*lockEdge(nil), item.path...), e)})
			}
		}
		if best == nil {
			continue
		}
		// Canonical key: the sorted set of classes on the cycle, so a
		// cycle discovered from each of its edges reports once.
		names := make([]string, 0, len(best))
		for _, e := range best {
			names = append(names, lockClassName(e.from))
		}
		sort.Strings(names)
		key := strings.Join(names, "→")
		if seen[key] {
			continue
		}
		seen[key] = true
		cycles = append(cycles, cycle{path: best, key: key})
	}

	sort.Slice(cycles, func(i, j int) bool {
		if len(cycles[i].path) != len(cycles[j].path) {
			return len(cycles[i].path) < len(cycles[j].path)
		}
		return cycles[i].key < cycles[j].key
	})
	for rank, c := range cycles {
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle (rank %d of %d, %d locks): ", rank+1, len(cycles), len(c.path))
		for i, e := range c.path {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s→%s in %s at %s", lockClassName(e.from), lockClassName(e.to),
				e.node.Name(), trimPos(pr.Fset.Position(e.pos)))
			if e.via != "" {
				fmt.Fprintf(&b, " (%s)", e.via)
			}
		}
		// Report at the earliest witness edge so the finding lands on a
		// line a human (or an ignore comment) can act on.
		first := c.path[0]
		for _, e := range c.path {
			if e.seq < first.seq {
				first = e
			}
		}
		p.Reportf(first.pos, "%s", b.String())
	}
}
