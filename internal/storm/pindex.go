package storm

import (
	"fmt"
	"strings"
	"sync"
)

// PersistentIndex is a durable inverted index over a store's keywords,
// held in a B+tree on the same page file as the heap. Each posting is one
// tree entry with the composite key
//
//	lowercase(keyword) + "\x00" + object name
//
// so a keyword's postings are a contiguous key range served by a prefix
// scan, and the index survives restarts (its root lives in the file
// header next to the catalog's).
type PersistentIndex struct {
	tree *BTree
	// mu is the owning store's lock: the tree has none of its own, and a
	// read beside a Put could see a leaf in the middle of a split.
	mu *sync.RWMutex
}

// postingKey builds the composite key for one (keyword, name) pair.
func postingKey(keyword, name string) string {
	return strings.ToLower(keyword) + "\x00" + name
}

// postingsFit fails with ErrKeyTooLong when one of the object's posting
// keys would exceed what a tree key can hold. Store.Put asks before it
// writes anything, so Add does not meet such a key on a live store.
func postingsFit(obj *Object) error {
	for _, k := range obj.Keywords {
		if len(strings.ToLower(k))+1+len(obj.Name) > MaxKeyLen {
			return fmt.Errorf("%w: posting %q of %q", ErrKeyTooLong, k, obj.Name)
		}
	}
	return nil
}

// Add indexes every keyword of the object. Like Remove it is the owning
// store's to call, under its write lock.
func (ix *PersistentIndex) Add(obj *Object, oid OID) error {
	for _, k := range obj.Keywords {
		key := postingKey(k, obj.Name)
		if len(key) > MaxKeyLen {
			return fmt.Errorf("%w: posting %q", ErrKeyTooLong, key)
		}
		if err := ix.tree.Put(key, oid); err != nil {
			return err
		}
	}
	return nil
}

// Remove un-indexes every keyword of the object.
func (ix *PersistentIndex) Remove(obj *Object) error {
	for _, k := range obj.Keywords {
		if _, err := ix.tree.Delete(postingKey(k, obj.Name)); err != nil {
			return err
		}
	}
	return nil
}

// postings calls fn, in key order, with the object name and location of
// every posting under the lower-cased keyword q, stopping when fn returns
// false. name aliases a pinned tree page and must not be retained. Caller
// holds the store lock.
func (ix *PersistentIndex) postings(q string, fn func(name []byte, oid OID) bool) error {
	prefix := append(append(make([]byte, 0, len(q)+1), q...), 0)
	return ix.tree.ascend(prefix, prefixEnd(prefix), func(key []byte, oid OID) bool {
		return fn(key[len(prefix):], oid)
	})
}

// Lookup returns the names (ascending) of objects carrying the keyword.
func (ix *PersistentIndex) Lookup(keyword string) ([]string, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var names []string
	err := ix.postings(strings.ToLower(keyword), func(name []byte, _ OID) bool {
		names = append(names, string(name))
		return true
	})
	return names, err
}

// Postings returns the number of (keyword, object) pairs indexed.
func (ix *PersistentIndex) Postings() (int, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree.Len()
}

// loadPersistentIndexAfterRecovery attaches to or (re)builds the store's
// on-disk inverted index. forceRebuild discards the stored image (set
// after a crash: index pages regress independently of the WAL-recovered
// heap, so the stored image cannot be trusted).
func (s *Store) loadPersistentIndexAfterRecovery(forceRebuild bool) error {
	if root := s.file.IndexRoot(); root != InvalidPage && !forceRebuild {
		ix := &PersistentIndex{tree: OpenBTree(s.pool, root), mu: &s.mu}
		// Plausibility check: the tree must walk cleanly.
		if _, err := ix.Postings(); err == nil {
			s.pindex = ix
			s.pindexRoot = root
			return nil
		}
		// Stale or torn: fall through and rebuild.
	}
	tree, err := NewBTree(s.pool)
	if err != nil {
		return err
	}
	ix := &PersistentIndex{tree: tree, mu: &s.mu}
	err = s.Scan(func(o *Object) bool {
		s.mu.RLock()
		oid, ok := s.byName[o.Name]
		s.mu.RUnlock()
		if !ok {
			return true
		}
		if aerr := ix.Add(o, oid); aerr != nil {
			err = aerr
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	s.pindex = ix
	if err := s.markDirty(); err != nil {
		return err
	}
	return s.syncIndexRoot()
}

// syncIndexRoot records the index root in the header when it has moved.
func (s *Store) syncIndexRoot() error {
	if s.pindex == nil || s.pindex.tree.Root() == s.pindexRoot {
		return nil
	}
	if err := s.file.SetIndexRoot(s.pindex.tree.Root()); err != nil {
		return err
	}
	s.pindexRoot = s.pindex.tree.Root()
	return nil
}

// Index returns the store's persistent inverted index, or nil when the
// option is disabled.
func (s *Store) Index() *PersistentIndex { return s.pindex }

// LookupKeyword returns the names of objects carrying the keyword using
// the persistent index. It fails when the index is disabled.
func (s *Store) LookupKeyword(keyword string) ([]string, error) {
	if s.pindex == nil {
		return nil, fmt.Errorf("storm: persistent index not enabled")
	}
	return s.pindex.Lookup(keyword)
}

// indexAdd/indexRemove mirror object mutations into the index (no-ops
// when disabled). Callers hold s.mu for writing, or are Open.
func (s *Store) indexAdd(obj *Object, oid OID) error {
	if s.pindex == nil {
		return nil
	}
	if err := s.pindex.Add(obj, oid); err != nil {
		return err
	}
	return s.syncIndexRoot()
}

func (s *Store) indexRemove(obj *Object) error {
	if s.pindex == nil {
		return nil
	}
	if err := s.pindex.Remove(obj); err != nil {
		return err
	}
	return s.syncIndexRoot()
}
