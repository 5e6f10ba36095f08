package chord

import "sort"

// ConvergedTables builds the fully-stabilized routing state for a set of
// node addresses: the ring in key order, complete successor lists,
// correct predecessors and exact fingers — the fixed point the
// maintenance loops converge to. Simulation harnesses use it to study
// routing behaviour in isolation from the maintenance protocol; tests
// use it as the ground truth live rings are compared against. Tables are
// returned in ring (key) order.
func ConvergedTables(addrs []string, succLen int) []*Table {
	refs := make([]NodeRef, len(addrs))
	for i, a := range addrs {
		refs[i] = refFor(a)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
	tables := make([]*Table, len(refs))
	for i, self := range refs {
		tb := newTable(self, succLen)
		var succs []NodeRef
		for s := 1; s <= succLen; s++ {
			succs = append(succs, refs[(i+s)%len(refs)])
		}
		tb.setSuccessors(succs)
		tb.notify(refs[(i+len(refs)-1)%len(refs)])
		for f := 0; f < Bits; f++ {
			start := fingerStart(self.Key, f)
			// Owner of start: the ref at minimal clockwise distance.
			best, bestDist := -1, uint64(0)
			for j, r := range refs {
				d := uint64(r.Key - start)
				if best == -1 || d < bestDist {
					best, bestDist = j, d
				}
			}
			tb.setFinger(f, refs[best])
		}
		tables[i] = tb
	}
	return tables
}
