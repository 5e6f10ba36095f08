package storm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// A disk-backed B+tree mapping string keys to OIDs, used as the store's
// persistent catalog: name → object location. It lives on the same page
// file as the heap, behind the same buffer pool, and its root page id is
// recorded in the file header so an open can load the catalog without
// decoding every object record.
//
// Node page layout (the first 13 bytes are the common page header with
// the page-type byte at offset 12):
//
//	offset 13: uint16 entry count
//	offset 15: uint32 right sibling (leaves only; 0 = none)
//	offset 19: uint32 leftmost child (internal only)
//	offset 23: entries, packed sequentially:
//	   leaf:     uint16 klen | key | uint32 page | uint16 slot
//	   internal: uint16 klen | key | uint32 child   (child holds keys >= key)
//
// Entries are kept key-sorted; inserts shift bytes within the page.
// Deletes compact in place without rebalancing — the catalog workload
// (names) never shrinks enough for underflow to matter, and lookups stay
// correct regardless.

const (
	btreeLeaf     = pageTypeBTreeLeaf
	btreeInternal = pageTypeBTreeInternal

	btNodeHeader = 23 // relative to page start
	btLeafValLen = 6  // page(4) + slot(2)
	btIntValLen  = 4  // child page id
)

// MaxKeyLen bounds catalog keys so any two entries fit a page.
const MaxKeyLen = 1024

// B+tree errors.
var (
	ErrKeyTooLong = errors.New("storm: btree key too long")
	ErrBadTree    = errors.New("storm: corrupt btree node")
)

// BTree is a persistent string→OID map.
type BTree struct {
	pool *BufferPool
	root PageID
}

// NewBTree creates an empty tree, allocating its root leaf.
func NewBTree(pool *BufferPool) (*BTree, error) {
	p, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	root := p.ID()
	initBTNode(p, btreeLeaf)
	if err := pool.Unpin(root, true); err != nil {
		return nil, err
	}
	return &BTree{pool: pool, root: root}, nil
}

// OpenBTree attaches to an existing tree rooted at root.
func OpenBTree(pool *BufferPool, root PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// Root returns the current root page id (it changes when the root splits).
func (t *BTree) Root() PageID { return t.root }

func initBTNode(p *Page, typ uint8) {
	p.buf[12] = typ
	binary.BigEndian.PutUint16(p.buf[13:15], 0)
	binary.BigEndian.PutUint32(p.buf[15:19], 0)
	binary.BigEndian.PutUint32(p.buf[19:23], 0)
}

func btType(p *Page) uint8 { return p.buf[12] }
func btCount(p *Page) int  { return int(binary.BigEndian.Uint16(p.buf[13:15])) }
func btSetCount(p *Page, n int) {
	binary.BigEndian.PutUint16(p.buf[13:15], uint16(n))
}
func btNext(p *Page) PageID { return PageID(binary.BigEndian.Uint32(p.buf[15:19])) }
func btSetNext(p *Page, id PageID) {
	binary.BigEndian.PutUint32(p.buf[15:19], uint32(id))
}
func btLeft(p *Page) PageID { return PageID(binary.BigEndian.Uint32(p.buf[19:23])) }
func btSetLeft(p *Page, id PageID) {
	binary.BigEndian.PutUint32(p.buf[19:23], uint32(id))
}

func btValLen(typ uint8) int {
	if typ == btreeLeaf {
		return btLeafValLen
	}
	return btIntValLen
}

// btEntry describes one decoded entry.
type btEntry struct {
	off int // byte offset of the entry within the page
	key []byte
	end int // offset just past the entry
	val []byte
}

// btWalk iterates entries; fn returning false stops. Returns an error on
// structural corruption.
func btWalk(p *Page, fn func(i int, e btEntry) bool) error {
	typ := btType(p)
	vlen := btValLen(typ)
	off := btNodeHeader
	n := btCount(p)
	for i := 0; i < n; i++ {
		if off+2 > PageSize {
			return ErrBadTree
		}
		klen := int(binary.BigEndian.Uint16(p.buf[off : off+2]))
		end := off + 2 + klen + vlen
		if klen > MaxKeyLen || end > PageSize {
			return ErrBadTree
		}
		e := btEntry{
			off: off,
			key: p.buf[off+2 : off+2+klen],
			val: p.buf[off+2+klen : end],
			end: end,
		}
		if !fn(i, e) {
			return nil
		}
		off = end
	}
	return nil
}

// btUsed returns bytes used by entries.
func btUsed(p *Page) int {
	used := btNodeHeader
	btWalk(p, func(i int, e btEntry) bool { used = e.end; return true }) //nolint:errcheck
	return used
}

// btFind locates key: returns the entry index and whether it matched
// exactly; when not found, idx is the insertion position.
func btFind(p *Page, key []byte) (idx int, found bool, err error) {
	idx = btCount(p)
	err = btWalk(p, func(i int, e btEntry) bool {
		switch bytes.Compare(e.key, key) {
		case 0:
			idx, found = i, true
			return false
		case 1: // e.key > key
			idx = i
			return false
		}
		return true
	})
	return idx, found, err
}

// entryAt returns entry i (must exist).
func btEntryAt(p *Page, i int) (btEntry, error) {
	var out btEntry
	ok := false
	err := btWalk(p, func(j int, e btEntry) bool {
		if j == i {
			out, ok = e, true
			return false
		}
		return true
	})
	if err != nil {
		return out, err
	}
	if !ok {
		return out, ErrBadTree
	}
	return out, nil
}

// btInsertAt splices an entry at index i. Returns false when the page
// lacks room.
func btInsertAt(p *Page, i int, key, val []byte) (bool, error) {
	need := 2 + len(key) + len(val)
	used := btUsed(p)
	if used+need > PageSize {
		return false, nil
	}
	// Find the byte offset of index i.
	off := used
	if i < btCount(p) {
		e, err := btEntryAt(p, i)
		if err != nil {
			return false, err
		}
		off = e.off
	}
	copy(p.buf[off+need:used+need], p.buf[off:used])
	binary.BigEndian.PutUint16(p.buf[off:off+2], uint16(len(key)))
	copy(p.buf[off+2:], key)
	copy(p.buf[off+2+len(key):], val)
	btSetCount(p, btCount(p)+1)
	return true, nil
}

// btRemoveAt deletes entry i.
func btRemoveAt(p *Page, i int) error {
	e, err := btEntryAt(p, i)
	if err != nil {
		return err
	}
	used := btUsed(p)
	copy(p.buf[e.off:], p.buf[e.end:used])
	btSetCount(p, btCount(p)-1)
	return nil
}

func leafVal(oid OID) []byte {
	var v [btLeafValLen]byte
	binary.BigEndian.PutUint32(v[0:4], uint32(oid.Page))
	binary.BigEndian.PutUint16(v[4:6], uint16(oid.Slot))
	return v[:]
}

func leafOID(v []byte) OID {
	return OID{
		Page: PageID(binary.BigEndian.Uint32(v[0:4])),
		Slot: Slot(binary.BigEndian.Uint16(v[4:6])),
	}
}

func childVal(id PageID) []byte {
	var v [btIntValLen]byte
	binary.BigEndian.PutUint32(v[:], uint32(id))
	return v[:]
}

func childID(v []byte) PageID {
	return PageID(binary.BigEndian.Uint32(v))
}

// Get returns the OID stored under key.
func (t *BTree) Get(key string) (OID, bool, error) {
	if len(key) > MaxKeyLen {
		return OID{}, false, ErrKeyTooLong
	}
	leaf, err := t.descend([]byte(key), nil)
	if err != nil {
		return OID{}, false, err
	}
	p, err := t.pool.Fetch(leaf)
	if err != nil {
		return OID{}, false, err
	}
	defer t.pool.Unpin(leaf, false)
	i, found, err := btFind(p, []byte(key))
	if err != nil || !found {
		return OID{}, false, err
	}
	e, err := btEntryAt(p, i)
	if err != nil {
		return OID{}, false, err
	}
	return leafOID(e.val), true, nil
}

// descend walks from the root to the leaf responsible for key. When path
// is non-nil it accumulates the internal pages visited (for splits).
func (t *BTree) descend(key []byte, path *[]PageID) (PageID, error) {
	id := t.root
	for depth := 0; depth < 64; depth++ {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return InvalidPage, err
		}
		if btType(p) == btreeLeaf {
			t.pool.Unpin(id, false)
			return id, nil
		}
		if path != nil {
			*path = append(*path, id)
		}
		next := btLeft(p)
		err = btWalk(p, func(i int, e btEntry) bool {
			if bytes.Compare(e.key, key) <= 0 {
				next = childID(e.val)
				return true
			}
			return false
		})
		t.pool.Unpin(id, false)
		if err != nil {
			return InvalidPage, err
		}
		if next == InvalidPage {
			return InvalidPage, ErrBadTree
		}
		id = next
	}
	return InvalidPage, fmt.Errorf("%w: descent too deep", ErrBadTree)
}

// Put inserts or replaces the OID under key.
func (t *BTree) Put(key string, oid OID) error {
	k := []byte(key)
	if len(k) > MaxKeyLen {
		return ErrKeyTooLong
	}
	var path []PageID
	leafID, err := t.descend(k, &path)
	if err != nil {
		return err
	}
	p, err := t.pool.Fetch(leafID)
	if err != nil {
		return err
	}
	i, found, err := btFind(p, k)
	if err != nil {
		t.pool.Unpin(leafID, false)
		return err
	}
	if found {
		e, err := btEntryAt(p, i)
		if err == nil {
			copy(e.val, leafVal(oid))
		}
		uerr := t.pool.Unpin(leafID, true)
		if err != nil {
			return err
		}
		return uerr
	}
	ok, err := btInsertAt(p, i, k, leafVal(oid))
	if err != nil {
		t.pool.Unpin(leafID, false)
		return err
	}
	if ok {
		return t.pool.Unpin(leafID, true)
	}
	// Leaf is full: split, then retry the insert into the proper half.
	sepKey, rightID, err := t.splitLeaf(p, leafID)
	if err != nil {
		t.pool.Unpin(leafID, false)
		return err
	}
	target := leafID
	if bytes.Compare(k, sepKey) >= 0 {
		target = rightID
	}
	if err := t.pool.Unpin(leafID, true); err != nil {
		return err
	}
	if err := t.insertIntoLeaf(target, k, leafVal(oid)); err != nil {
		return err
	}
	return t.propagate(path, sepKey, rightID)
}

// insertIntoLeaf inserts into a known, freshly split leaf.
func (t *BTree) insertIntoLeaf(id PageID, key, val []byte) error {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	i, found, err := btFind(p, key)
	if err == nil && !found {
		var ok bool
		ok, err = btInsertAt(p, i, key, val)
		if err == nil && !ok {
			err = fmt.Errorf("%w: no room after split", ErrBadTree)
		}
	}
	uerr := t.pool.Unpin(id, true)
	if err != nil {
		return err
	}
	return uerr
}

// splitLeaf moves the upper half of p into a new right sibling and
// returns the separator key (first key of the right node).
func (t *BTree) splitLeaf(p *Page, id PageID) ([]byte, PageID, error) {
	right, err := t.pool.NewPage()
	if err != nil {
		return nil, InvalidPage, err
	}
	rightID := right.ID()
	initBTNode(right, btreeLeaf)
	btSetNext(right, btNext(p))
	btSetNext(p, rightID)

	if err := t.moveUpperHalf(p, right); err != nil {
		t.pool.Unpin(rightID, false)
		return nil, InvalidPage, err
	}
	sep, err := btEntryAt(right, 0)
	if err != nil {
		t.pool.Unpin(rightID, false)
		return nil, InvalidPage, err
	}
	sepKey := append([]byte(nil), sep.key...)
	if err := t.pool.Unpin(rightID, true); err != nil {
		return nil, InvalidPage, err
	}
	return sepKey, rightID, nil
}

// moveUpperHalf relocates the upper half of src's entries to dst (same
// node type).
func (t *BTree) moveUpperHalf(src, dst *Page) error {
	n := btCount(src)
	half := n / 2
	type kv struct{ k, v []byte }
	var moved []kv
	err := btWalk(src, func(i int, e btEntry) bool {
		if i >= half {
			moved = append(moved, kv{
				append([]byte(nil), e.key...),
				append([]byte(nil), e.val...),
			})
		}
		return true
	})
	if err != nil {
		return err
	}
	// Truncating the count is enough: entries are contiguous, so the
	// bytes beyond entry half-1 become unreachable free space.
	btSetCount(src, half)
	for i, m := range moved {
		ok, err := btInsertAt(dst, i, m.k, m.v)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: split destination full", ErrBadTree)
		}
	}
	return nil
}

// propagate inserts (sepKey -> rightID) into the parent chain, splitting
// internal nodes and growing a new root as needed.
func (t *BTree) propagate(path []PageID, sepKey []byte, rightID PageID) error {
	key := sepKey
	child := rightID
	for i := len(path) - 1; i >= 0; i-- {
		parentID := path[i]
		p, err := t.pool.Fetch(parentID)
		if err != nil {
			return err
		}
		idx, found, err := btFind(p, key)
		if err != nil || found {
			t.pool.Unpin(parentID, false)
			if err == nil {
				err = fmt.Errorf("%w: duplicate separator", ErrBadTree)
			}
			return err
		}
		ok, err := btInsertAt(p, idx, key, childVal(child))
		if err != nil {
			t.pool.Unpin(parentID, false)
			return err
		}
		if ok {
			return t.pool.Unpin(parentID, true)
		}
		// Split the internal node: middle key moves up.
		newKey, newRight, err := t.splitInternal(p)
		if err != nil {
			t.pool.Unpin(parentID, false)
			return err
		}
		// Insert the pending (key, child) into the correct half.
		target := parentID
		if bytes.Compare(key, newKey) >= 0 {
			target = newRight
		}
		if err := t.pool.Unpin(parentID, true); err != nil {
			return err
		}
		if err := t.insertIntoInternal(target, key, child, newKey); err != nil {
			return err
		}
		key = newKey
		child = newRight
	}
	// Root split: grow the tree.
	return t.growRoot(key, child)
}

// splitInternal splits an internal node, returning the key that moves up
// and the new right node's id. The moved-up key is removed from both
// halves; the right node's leftmost child is the child that key pointed
// to.
func (t *BTree) splitInternal(p *Page) ([]byte, PageID, error) {
	right, err := t.pool.NewPage()
	if err != nil {
		return nil, InvalidPage, err
	}
	rightID := right.ID()
	initBTNode(right, btreeInternal)

	n := btCount(p)
	mid := n / 2
	midE, err := btEntryAt(p, mid)
	if err != nil {
		t.pool.Unpin(rightID, false)
		return nil, InvalidPage, err
	}
	upKey := append([]byte(nil), midE.key...)
	btSetLeft(right, childID(midE.val))

	// Move entries after mid to the right node.
	type kv struct{ k, v []byte }
	var moved []kv
	btWalk(p, func(i int, e btEntry) bool { //nolint:errcheck
		if i > mid {
			moved = append(moved, kv{
				append([]byte(nil), e.key...),
				append([]byte(nil), e.val...),
			})
		}
		return true
	})
	btSetCount(p, mid) // drops mid and everything after
	for i, m := range moved {
		ok, err := btInsertAt(right, i, m.k, m.v)
		if err != nil || !ok {
			t.pool.Unpin(rightID, false)
			if err == nil {
				err = fmt.Errorf("%w: internal split destination full", ErrBadTree)
			}
			return nil, InvalidPage, err
		}
	}
	if err := t.pool.Unpin(rightID, true); err != nil {
		return nil, InvalidPage, err
	}
	return upKey, rightID, nil
}

// insertIntoInternal inserts (key -> child) into a known internal node.
// newKey is the key that moved up during the split; when key == newKey
// the child becomes the node's leftmost pointer instead.
func (t *BTree) insertIntoInternal(id PageID, key []byte, child PageID, newKey []byte) error {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	var uerr error
	if bytes.Equal(key, newKey) {
		btSetLeft(p, child)
	} else {
		idx, found, ferr := btFind(p, key)
		if ferr != nil || found {
			t.pool.Unpin(id, false)
			if ferr == nil {
				ferr = fmt.Errorf("%w: duplicate separator", ErrBadTree)
			}
			return ferr
		}
		ok, ierr := btInsertAt(p, idx, key, childVal(child))
		if ierr != nil || !ok {
			t.pool.Unpin(id, false)
			if ierr == nil {
				ierr = fmt.Errorf("%w: no room after internal split", ErrBadTree)
			}
			return ierr
		}
	}
	uerr = t.pool.Unpin(id, true)
	return uerr
}

// growRoot installs a new root above the old one.
func (t *BTree) growRoot(key []byte, right PageID) error {
	p, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	newRoot := p.ID()
	initBTNode(p, btreeInternal)
	btSetLeft(p, t.root)
	ok, err := btInsertAt(p, 0, key, childVal(right))
	if err != nil || !ok {
		t.pool.Unpin(newRoot, false)
		if err == nil {
			err = fmt.Errorf("%w: empty new root full", ErrBadTree)
		}
		return err
	}
	if err := t.pool.Unpin(newRoot, true); err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// Delete removes key. Nodes are not rebalanced; emptied leaves simply
// stop matching.
func (t *BTree) Delete(key string) (bool, error) {
	k := []byte(key)
	if len(k) > MaxKeyLen {
		return false, ErrKeyTooLong
	}
	leafID, err := t.descend(k, nil)
	if err != nil {
		return false, err
	}
	p, err := t.pool.Fetch(leafID)
	if err != nil {
		return false, err
	}
	i, found, err := btFind(p, k)
	if err != nil || !found {
		t.pool.Unpin(leafID, false)
		return false, err
	}
	err = btRemoveAt(p, i)
	uerr := t.pool.Unpin(leafID, err == nil)
	if err != nil {
		return false, err
	}
	return true, uerr
}

// ascend calls fn for every entry with start <= key < end in ascending
// key order, stopping early when fn returns false; a nil end means "to the
// last key". Keys are compared as bytes in the page and the walk ends at
// the first key at or past end, so an entry outside the range costs a
// comparison and nothing else. key aliases the pinned leaf: fn must not
// retain it and must not modify the tree.
func (t *BTree) ascend(start, end []byte, fn func(key []byte, oid OID) bool) error {
	id, err := t.descend(start, nil)
	if err != nil {
		return err
	}
	for more := true; more && id != InvalidPage; {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		werr := ErrBadTree // a sibling pointer that leaves the leaf chain
		if btType(p) == btreeLeaf {
			werr = btWalk(p, func(_ int, e btEntry) bool {
				if bytes.Compare(e.key, start) < 0 {
					return true
				}
				more = (end == nil || bytes.Compare(e.key, end) < 0) && fn(e.key, leafOID(e.val))
				return more
			})
		}
		next := btNext(p)
		if uerr := t.pool.Unpin(id, false); werr == nil {
			werr = uerr
		}
		if werr != nil {
			return werr
		}
		id = next
	}
	return nil
}

// Ascend calls fn for every (key, OID) pair in ascending key order,
// stopping early when fn returns false. fn must not modify the tree.
func (t *BTree) Ascend(fn func(key string, oid OID) bool) error {
	return t.AscendRange("", "", fn)
}

// Len counts the stored keys (walks the leaf chain).
func (t *BTree) Len() (int, error) {
	n := 0
	err := t.ascend(nil, nil, func([]byte, OID) bool { n++; return true })
	return n, err
}

// AscendRange calls fn for every key in [start, end) in ascending order,
// stopping early when fn returns false. An empty end means "to the last
// key". fn must not modify the tree.
func (t *BTree) AscendRange(start, end string, fn func(key string, oid OID) bool) error {
	if len(start) > MaxKeyLen || len(end) > MaxKeyLen {
		return ErrKeyTooLong
	}
	var stop []byte
	if end != "" {
		stop = []byte(end)
	}
	return t.ascend([]byte(start), stop, func(key []byte, oid OID) bool { return fn(string(key), oid) })
}

// prefixEnd returns the first key past every key with the given non-empty
// prefix: the prefix with its last byte incremented, carrying over 0xFF
// bytes. Nil means the range runs to the last key (the prefix is all 0xFF).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
