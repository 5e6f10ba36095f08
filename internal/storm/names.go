package storm

import (
	"bytes"
	"slices"
)

// nameList is the plan's answer to "which catalog names contain q": every
// name byName has held since the list was last rebuilt, folded with
// strings.ToLower — what recordMatches folds a name with — and followed by
// a NUL, in one buffer, so one bytes.Index pass over it finds them all.
// starts[i] is where names[i] begins in folded. A name deleted since, or
// listed twice because it was deleted or moved and set again, is still
// here: a reader looks each hit up in byName, which has the current
// location or none. Kept on every store by Store.catalogSet and
// Store.catalogUnset, within 2 × live + 64 entries. Guarded by Store.mu.
type nameList struct {
	folded []byte
	starts []int
	names  []string
}

// catalogSet binds name to oid in byName and lists a name byName did not
// hold. Caller holds s.mu or is Open.
func (s *Store) catalogSet(name string, oid OID) {
	if _, ok := s.byName[name]; !ok {
		s.names.add(name)
	}
	s.byName[name] = oid
	s.namesFit()
}

// catalogUnset drops name from byName; its entry in names stays until the
// next rebuild. Caller holds s.mu.
func (s *Store) catalogUnset(name string) {
	delete(s.byName, name)
	s.namesFit()
}

// namesFit rebuilds names from byName once it holds more than 2 × live +
// 64 entries: after at least as many writes as the rebuild lists names,
// so a writer pays it amortised O(1), and a reader's pass is never more
// than about twice the live names.
func (s *Store) namesFit() {
	if len(s.names.names) > 2*len(s.byName)+64 {
		s.names.rebuild(s.byName)
	}
}

// add appends name. An ASCII name is folded in place, so it allocates
// nothing but the buffers' amortised growth.
func (l *nameList) add(name string) {
	at := len(l.folded)
	l.starts, l.names = append(l.starts, at), append(l.names, name)
	l.folded = append(l.folded, name...)
	l.folded = append(append(l.folded[:at], lowerBytes(l.folded[at:])...), 0)
}

// rebuild lists exactly the names of byName, in the buffers it has.
func (l *nameList) rebuild(byName map[string]OID) {
	clear(l.names) // let the dropped names go
	l.folded, l.starts, l.names = l.folded[:0], l.starts[:0], l.names[:0]
	for name := range byName {
		l.add(name)
	}
}

// match calls fn with each entry whose folded name contains q, q folded:
// the buffer is searched from the start of the entry after each hit's, and
// a hit that runs into the NUL ending its entry — q held a NUL, or spans
// two names — is not one.
func (l *nameList) match(q string, fn func(name string)) {
	sep := []byte(q)
	for from := 0; from < len(l.folded); {
		at := bytes.Index(l.folded[from:], sep)
		if at < 0 {
			return
		}
		at += from
		i, exact := slices.BinarySearch(l.starts, at)
		if !exact {
			i--
		}
		from = len(l.folded)
		if i+1 < len(l.starts) {
			from = l.starts[i+1]
		}
		if at+len(q) < from {
			fn(l.names[i])
		}
	}
}
