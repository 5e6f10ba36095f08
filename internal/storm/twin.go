package storm

import "slices"

// keywordTwin is the plan's keyword arm, kept in memory on every store:
// for each keyword of a live heap record, folded as lowerEquals folds it
// (strings.ToLower), the locations of the records carrying it. A record
// can match q by keyword only if its location is under lists[q]. Each
// location is listed once per distinct folded keyword of its record, so
// the twin holds at most one OID per stored keyword, and a keyword no
// record carries any more is dropped. It changes under Store.mu held for
// writing, at every site that binds or unbinds a heap record (insertLocked,
// putUnlogged, deleteUnlogged, rebuildCatalog), which read the keywords
// from the record on the page they hold pinned; Open builds it in the page
// pass it makes anyway. Readers look up under the read lock.
type keywordTwin struct {
	lists map[string]*[]OID
	fold  []byte // scratch a keyword is folded in
}

// key folds k into the scratch. An ASCII keyword is folded in place, so
// a lookup allocates nothing.
func (t *keywordTwin) key(k []byte) []byte {
	t.fold = append(t.fold[:0], k...)
	return lowerBytes(t.fold)
}

// bind lists oid under each keyword of rec, the record stored there.
func (t *keywordTwin) bind(rec []byte, oid OID) {
	if t.lists == nil {
		t.lists = make(map[string]*[]OID)
	}
	recordKeys(rec, func(k []byte) {
		key := t.key(k)
		switch l := t.lists[string(key)]; {
		case l == nil:
			t.lists[string(key)] = &[]OID{oid}
		case (*l)[len(*l)-1] != oid: // else the record carries the keyword twice
			*l = append(*l, oid)
		}
	})
}

// unbind takes oid off the lists of rec's keywords: rec is the record
// stored there, read before its bytes change or go.
func (t *keywordTwin) unbind(rec []byte, oid OID) {
	recordKeys(rec, func(k []byte) {
		key := t.key(k)
		l := t.lists[string(key)]
		if l == nil {
			return // the keyword's second copy in rec
		}
		if i := slices.Index(*l, oid); i >= 0 {
			last := len(*l) - 1
			(*l)[i] = (*l)[last]
			if *l = (*l)[:last]; last == 0 {
				delete(t.lists, string(key))
			}
		}
	})
}
