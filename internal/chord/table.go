package chord

// Table is the pure routing state of one chord participant: predecessor,
// successor list, and finger table, plus the next-hop decision. It has
// no locks and performs no I/O — Node guards it with a mutex for the
// live protocol, and the bench simulator drives one Table per simulated
// node directly.
type Table struct {
	self    NodeRef
	pred    NodeRef // zero while unknown
	succs   []NodeRef
	fingers [Bits]NodeRef // zero entries are unset
	succLen int
}

// DefaultSuccessors is the successor-list length when a Table or Node is
// configured with zero. With independent failure probability p, a
// lookup strands only when all r successors die inside one stabilize
// interval — p^r, vanishing already at small r.
const DefaultSuccessors = 4

// NewTable returns the state of a node that is alone on its ring: it is
// its own successor and owns every key.
func NewTable(self NodeRef, succLen int) *Table {
	if succLen <= 0 {
		succLen = DefaultSuccessors
	}
	return &Table{self: self, succs: []NodeRef{self}, succLen: succLen}
}

// Self returns the node's own reference.
func (t *Table) Self() NodeRef { return t.self }

// Successor returns the immediate successor — self when alone.
func (t *Table) Successor() NodeRef {
	if len(t.succs) == 0 {
		return t.self
	}
	return t.succs[0]
}

// Successors returns a copy of the successor list.
func (t *Table) Successors() []NodeRef {
	return append([]NodeRef(nil), t.succs...)
}

// Predecessor returns the known predecessor, if any.
func (t *Table) Predecessor() (NodeRef, bool) {
	return t.pred, !t.pred.IsZero()
}

// Fingers returns a copy of the finger table; unset entries are zero.
func (t *Table) Fingers() []NodeRef {
	return append([]NodeRef(nil), t.fingers[:]...)
}

// Owns reports whether this node is responsible for k — k ∈ (pred, self]
// — or is alone on its ring. With the predecessor unknown but a real
// successor present the answer is conservatively false; routing resolves
// ownership via the predecessor's interval instead.
func (t *Table) Owns(k Key) bool {
	if t.Successor().Addr == t.self.Addr {
		return true
	}
	if t.pred.IsZero() {
		return false
	}
	return BetweenRightIncl(t.pred.Key, k, t.self.Key)
}

// NextHop decides one routing step for k. When done is true, owner is
// the final answer (self's successor owns k, or the node is alone).
// Otherwise hop is the node to forward the lookup to: the closest
// preceding finger, or the successor when no finger helps. failing, when
// non-nil, vetoes candidates the caller's failure detector distrusts.
func (t *Table) NextHop(k Key, failing func(addr string) bool) (owner NodeRef, hop NodeRef, done bool) {
	succ := t.Successor()
	if succ.Addr == t.self.Addr || BetweenRightIncl(t.self.Key, k, succ.Key) {
		return succ, NodeRef{}, true
	}
	hop = t.closestPreceding(k, failing)
	if hop.IsZero() {
		hop = succ
	}
	return NodeRef{}, hop, false
}

// closestPreceding scans the finger table top-down, then the successor
// list, for the live node whose key most closely precedes k — the step
// that halves the remaining arc and yields O(log N) lookups.
func (t *Table) closestPreceding(k Key, failing func(addr string) bool) NodeRef {
	ok := func(r NodeRef) bool {
		return !r.IsZero() && r.Addr != t.self.Addr &&
			Between(t.self.Key, r.Key, k) &&
			(failing == nil || !failing(r.Addr))
	}
	for i := len(t.fingers) - 1; i >= 0; i-- {
		if ok(t.fingers[i]) {
			return t.fingers[i]
		}
	}
	for i := len(t.succs) - 1; i >= 0; i-- {
		if ok(t.succs[i]) {
			return t.succs[i]
		}
	}
	return NodeRef{}
}

// SetSuccessors replaces the successor list, deduplicating by address
// and trimming to the configured length. An empty list resets to self.
func (t *Table) SetSuccessors(list []NodeRef) {
	t.succs = t.succs[:0]
	seen := make(map[string]bool, len(list))
	for _, r := range list {
		if r.IsZero() || seen[r.Addr] {
			continue
		}
		seen[r.Addr] = true
		t.succs = append(t.succs, r)
		if len(t.succs) >= t.succLen {
			break
		}
	}
	if len(t.succs) == 0 {
		t.succs = append(t.succs, t.self)
	}
}

// AdoptFromProbe folds one stabilize probe of the immediate successor
// into the table: the successor's predecessor x becomes the new
// successor when it sits between self and the old successor (a node
// joined in front of us), and the successor's own list backs up ours.
// It reports whether the immediate successor changed.
func (t *Table) AdoptFromProbe(succ NodeRef, succPred NodeRef, succSuccs []NodeRef) bool {
	head := succ
	if !succPred.IsZero() && succPred.Addr != t.self.Addr &&
		Between(t.self.Key, succPred.Key, succ.Key) {
		head = succPred
	}
	old := t.Successor()
	merged := make([]NodeRef, 0, 2+len(succSuccs))
	merged = append(merged, head)
	if head.Addr != succ.Addr {
		merged = append(merged, succ)
	}
	merged = append(merged, succSuccs...)
	t.SetSuccessors(merged)
	return t.Successor().Addr != old.Addr
}

// Notify offers cand as a predecessor candidate (the chord notify rule)
// and reports whether the predecessor changed.
func (t *Table) Notify(cand NodeRef) bool {
	if cand.IsZero() || cand.Addr == t.self.Addr {
		return false
	}
	if t.pred.IsZero() || Between(t.pred.Key, cand.Key, t.self.Key) {
		changed := t.pred.Addr != cand.Addr
		t.pred = cand
		return changed
	}
	return false
}

// SetFinger records the owner of finger interval i.
func (t *Table) SetFinger(i int, r NodeRef) {
	if i >= 0 && i < len(t.fingers) && r.Addr != t.self.Addr {
		t.fingers[i] = r
	}
}

// DropPredecessor forgets the predecessor (check-predecessor found it
// dead); the next notify re-learns it.
func (t *Table) DropPredecessor() { t.pred = NodeRef{} }

// RemoveFailed purges a dead node from every slot: predecessor, the
// successor list, and all fingers. It reports whether anything changed.
func (t *Table) RemoveFailed(addr string) bool {
	changed := false
	if t.pred.Addr == addr {
		t.pred = NodeRef{}
		changed = true
	}
	kept := t.succs[:0]
	for _, r := range t.succs {
		if r.Addr == addr {
			changed = true
			continue
		}
		kept = append(kept, r)
	}
	t.succs = kept
	if len(t.succs) == 0 {
		t.succs = append(t.succs, t.self)
	}
	for i := range t.fingers {
		if t.fingers[i].Addr == addr {
			t.fingers[i] = NodeRef{}
			changed = true
		}
	}
	return changed
}

// Depart processes a graceful-leave handoff: leaving disappears from the
// table and repl (the leaver's other neighbor) fills the hole — as a
// predecessor candidate when the leaver was our predecessor, and as a
// successor candidate when the leaver headed our successor list.
func (t *Table) Depart(leaving, repl NodeRef) bool {
	wasPred := t.pred.Addr == leaving.Addr
	wasSucc := t.Successor().Addr == leaving.Addr
	changed := t.RemoveFailed(leaving.Addr)
	if repl.IsZero() || repl.Addr == t.self.Addr {
		return changed
	}
	if wasPred {
		changed = t.Notify(repl) || changed
	}
	if wasSucc && (t.Successor().Addr == t.self.Addr ||
		Between(t.self.Key, repl.Key, t.Successor().Key)) {
		t.SetSuccessors(append([]NodeRef{repl}, t.succs...))
		changed = true
	}
	return changed
}
