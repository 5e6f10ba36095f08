package storm

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bestpeer/internal/obs"
)

// Store errors.
var (
	errNotFound = errors.New("storm: object not found")
)

// OID locates an object record on disk.
type OID struct {
	Page PageID
	Slot Slot
}

// String renders the OID as "page.slot".
func (o OID) String() string { return fmt.Sprintf("%d.%d", o.Page, o.Slot) }

// compareOIDs orders locations by page, then slot: page order.
func compareOIDs(a, b OID) int {
	if a.Page != b.Page {
		return cmp.Compare(a.Page, b.Page)
	}
	return cmp.Compare(a.Slot, b.Slot)
}

// Options configures a Store.
type Options struct {
	// BufferFrames is the buffer-pool size in pages. Zero defaults to 64.
	BufferFrames int
	// Policy names the buffer replacement strategy: "lru" (default),
	// "mru" or "clock".
	Policy string
	// PersistentCatalog maintains the name→location map in an on-disk
	// B+tree whose root is recorded in the file header, so reopening a
	// large store does not decode every object record. The catalog is
	// valid for cleanly closed files; a file whose catalog is missing or
	// implausible, or that was not closed cleanly, falls back to the full
	// scan.
	PersistentCatalog bool
	// WALPath, when non-empty, enables a write-ahead log at that path:
	// every Put/Delete is logged before the page mutation and replayed
	// at open, so a crash never loses acknowledged operations (with
	// WALSync) and never corrupts the store.
	WALPath string
	// WALSync fsyncs the log on every append. Off, the OS flushes
	// lazily: cheaper, and a crash may lose only the most recent
	// operations.
	WALSync bool
	// PersistentIndex maintains a durable inverted keyword index in an
	// on-disk B+tree that survives restarts and serves Store.LookupKeyword
	// (the raw posting list). Match does not read it: every store plans its
	// Match from memory. Rebuilt by scan when the on-disk image is missing,
	// implausible or was not closed cleanly.
	PersistentIndex bool
}

// Store is the object-level API of the storage manager: named objects on
// slotted pages behind a buffer pool. It is safe for concurrent use.
type Store struct {
	// wmu serialises writers from the log append to the page change, so
	// the WAL holds operations in the order the pages took them and a
	// checkpoint never truncates a record whose change is still to come.
	// Taken before mu; readers do not take it.
	wmu  sync.Mutex
	mu   sync.RWMutex
	file *diskFile
	pool *BufferPool

	// catalog, when enabled, mirrors byName on disk.
	catalog     *btree
	catalogRoot PageID

	// pindex, when enabled, is the durable inverted keyword index.
	pindex     *persistentIndex
	pindexRoot PageID

	// wal, when enabled, makes operations crash-durable.
	wal *wal

	// byName maps every stored name to its record; names lists them folded
	// for the plan's name arm. Both change in catalogSet and catalogUnset
	// only. twin is the plan's keyword arm.
	byName map[string]OID
	names  nameList
	twin   keywordTwin
	// dataPages lists the heap pages in ascending id order; free holds
	// each one's reclaimable bytes at the same index, for deterministic
	// lowest-page-first placement. Both grow and change in pageChanged
	// only.
	dataPages []PageID
	free      freeSpace

	// Heap pages walk has read.
	pagesRead atomic.Uint64

	// dirty mirrors the file header's dirty mark: pages have changed since
	// the last checkpoint. Guarded by mu; see markDirty.
	dirty bool

	// hookMu guards mutationHooks; see OnMutation.
	hookMu        sync.RWMutex
	mutationHooks []func()
}

// OnMutation registers fn to run after every successful Put or Delete
// has committed. Hooks run synchronously on the mutating goroutine, with
// the store lock released, before the operation returns — so anything a
// hook observes (e.g. bumping a cache-invalidation epoch) is ordered
// strictly after the mutation became visible to readers. Hooks must be
// fast and must not call back into the store. WAL replay at Open does
// not fire hooks: it completes before any hook can be registered.
func (s *Store) OnMutation(fn func()) {
	s.hookMu.Lock()
	s.mutationHooks = append(s.mutationHooks, fn)
	s.hookMu.Unlock()
}

// notifyMutation runs the registered mutation hooks.
func (s *Store) notifyMutation() {
	s.hookMu.RLock()
	hooks := s.mutationHooks
	s.hookMu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// Open opens the store at path, creating it if absent.
func Open(path string, opts Options) (*Store, error) {
	frames := opts.BufferFrames
	if frames <= 0 {
		frames = 64
	}
	var (
		file *diskFile
		err  error
	)
	if _, statErr := os.Stat(path); statErr == nil {
		file, err = openFile(path)
	} else {
		file, err = createFile(path)
	}
	if err != nil {
		return nil, err
	}
	s := &Store{
		file:   file,
		pool:   newBufferPool(file, frames, newReplacer(opts.Policy)),
		byName: make(map[string]OID),
		dirty:  file.isDirty(),
	}
	// The header may name only trees this session keeps in step with the
	// heap. A root left by a session that did not end in a checkpoint
	// (tree pages regress independently of heap pages), or belonging to a
	// tree this session will not maintain, is forgotten here and the tree
	// rebuilt by scan when next asked for: LookupKeyword trusts the index
	// it finds.
	if err := s.forgetRoots(s.dirty || !opts.PersistentCatalog, s.dirty || !opts.PersistentIndex); err != nil {
		_ = file.Close() // already failing; the open error is what matters
		return nil, err
	}

	fromTree := false
	if opts.PersistentCatalog {
		if root := file.MetaRoot(); root != invalidPage {
			s.catalog = openBTree(s.pool, root)
			s.catalogRoot = root
			if err := s.loadCatalog(); err == nil {
				fromTree = true
			} else {
				// Implausible catalog (e.g. unclean shutdown): fall back
				// to the authoritative scan and rebuild the tree below.
				s.catalog = nil
				s.byName = make(map[string]OID)
				s.names = nameList{}
			}
		}
	}
	if err := s.rebuildCatalog(!fromTree); err != nil {
		_ = file.Close() // already failing; the open error is what matters
		return nil, err
	}
	if opts.PersistentCatalog && s.catalog == nil {
		if err := s.buildCatalogTree(); err != nil {
			_ = file.Close() // already failing; the open error is what matters
			return nil, err
		}
	}
	replayed := 0
	if opts.WALPath != "" {
		wal, err := openWAL(opts.WALPath, opts.WALSync)
		if err != nil {
			_ = file.Close() // already failing; the open error is what matters
			return nil, err
		}
		s.wal = wal
		replayed, err = s.recover()
		if err != nil {
			_ = wal.Close()  // already failing; the recovery error is what matters
			_ = file.Close() // already failing; the open error is what matters
			return nil, err
		}
	}
	if opts.PersistentIndex {
		// The index loads after WAL recovery: a non-empty replay means
		// the previous session crashed, and index pages regressed
		// independently of the heap, so only a rebuild is trustworthy.
		if err := s.loadPersistentIndexAfterRecovery(replayed > 0); err != nil {
			_ = file.Close() // already failing; the open error is what matters
			return nil, err
		}
	}
	return s, nil
}

// RegisterMetrics publishes the store's state gauges and counters (and,
// when the WAL is enabled, its append counter and fsync histogram) on reg.
// Until it is called nothing is published and the WAL observes nothing;
// calling it again re-binds — the functions replace.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("bestpeer_storm_objects",
		"Objects currently stored.",
		func() float64 { return float64(s.Stats().Objects) })
	reg.GaugeFunc("bestpeer_storm_total_pages",
		"Store file size in pages.",
		func() float64 { return float64(s.Stats().TotalPages) })
	reg.CounterFunc("bestpeer_storm_pool_hits",
		"Buffer pool fetches served from memory.",
		func() float64 { return float64(s.Stats().PoolHits) })
	reg.CounterFunc("bestpeer_storm_pool_misses",
		"Buffer pool fetches that went to disk.",
		func() float64 { return float64(s.Stats().PoolMisses) })
	reg.CounterFunc("bestpeer_storm_pool_evictions",
		"Buffer pool frames evicted.",
		func() float64 { return float64(s.Stats().PoolEvictions) })
	reg.CounterFunc("bestpeer_storm_wal_records",
		"Operations logged since the WAL was opened (0 when disabled).",
		func() float64 { return float64(s.Stats().WALRecords) })
	reg.CounterFunc("bestpeer_storm_scan_pages_read_total",
		"Heap pages read by Scan walks (Scan, MatchFunc, CompactTo).",
		func() float64 { return float64(s.Stats().PagesRead) })
	if s.wal != nil {
		s.wal.bindMetrics(reg)
	}
}

// recover replays the WAL tail over the store and checkpoints, so the
// pages reflect every logged operation and the log restarts empty. It
// returns how many records were replayed.
func (s *Store) recover() (int, error) {
	replayed, err := s.wal.Replay(func(r *walRecord) error {
		switch r.Op {
		case walPut:
			_, err := s.putUnlogged(r.Obj)
			return err
		case walDelete:
			err := s.deleteUnlogged(r.Name)
			if errors.Is(err, errNotFound) {
				return nil // already applied before the crash
			}
			return err
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("storm: wal replay: %w", err)
	}
	return replayed, s.Checkpoint()
}

// Checkpoint flushes every dirty page to stable storage, clears the
// file's dirty mark and truncates the WAL: all logged operations are now
// reflected in the data file, and its trees describe its heap.
func (s *Store) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		return err
	}
	if s.dirty {
		// Not synced: a lost clear costs one rebuild at the next open.
		if err := s.file.setDirty(false, false); err != nil {
			return err
		}
		s.dirty = false
	}
	if s.wal != nil {
		return s.wal.Truncate()
	}
	return nil
}

// markDirty sets the file's dirty mark ahead of the first page change
// since the last checkpoint. From here to the next Checkpoint or Close a
// crash leaves heap, catalog and index pages of different ages on disk,
// and the mark is what tells the next Open to rebuild the trees from the
// heap instead of reading them. The mark is synced where the log is
// (WALSync): a store that leaves its operations to the OS's lazy flush
// leaves the mark to it too, and is protected against the death of the
// process, as its log is. Caller holds s.mu, or is Open.
func (s *Store) markDirty() error {
	if s.dirty {
		return nil
	}
	if err := s.file.setDirty(true, s.wal != nil && s.wal.sync); err != nil {
		return err
	}
	s.dirty = true
	return nil
}

// forgetRoots clears the header's catalog and index roots as asked.
func (s *Store) forgetRoots(catalog, index bool) error {
	if catalog && s.file.MetaRoot() != invalidPage {
		if err := s.file.SetMetaRoot(invalidPage); err != nil {
			return err
		}
	}
	if index && s.file.IndexRoot() != invalidPage {
		return s.file.SetIndexRoot(invalidPage)
	}
	return nil
}

// loadCatalog reads byName from the on-disk B+tree, validating that every
// location is within the file.
func (s *Store) loadCatalog() error {
	limit := s.file.PageCount()
	return s.catalog.Ascend(func(name string, oid OID) bool {
		if uint32(oid.Page) >= limit {
			return false // stale pointer: abort, caller falls back
		}
		s.catalogSet(name, oid)
		return true
	})
}

// buildCatalogTree creates the B+tree from the in-memory catalog and
// records its root.
func (s *Store) buildCatalogTree() error {
	tree, err := newBTree(s.pool)
	if err != nil {
		return err
	}
	for name, oid := range s.byName {
		if err := tree.Put(name, oid); err != nil {
			return err
		}
	}
	s.catalog = tree
	if err := s.markDirty(); err != nil {
		return err
	}
	return s.syncCatalogRoot()
}

// syncCatalogRoot records the catalog root in the file header when it has
// moved (root splits change it).
func (s *Store) syncCatalogRoot() error {
	if s.catalog == nil || s.catalog.Root() == s.catalogRoot {
		return nil
	}
	if err := s.file.SetMetaRoot(s.catalog.Root()); err != nil {
		return err
	}
	s.catalogRoot = s.catalog.Root()
	return nil
}

// catalogPut mirrors a name→location binding into the persistent catalog.
func (s *Store) catalogPut(name string, oid OID) error {
	if s.catalog == nil {
		return nil
	}
	if err := s.catalog.Put(name, oid); err != nil {
		return err
	}
	return s.syncCatalogRoot()
}

// catalogDelete mirrors a removal into the persistent catalog.
func (s *Store) catalogDelete(name string) error {
	if s.catalog == nil {
		return nil
	}
	if _, err := s.catalog.Delete(name); err != nil {
		return err
	}
	return s.syncCatalogRoot()
}

// rebuildCatalog scans every heap page to reconstruct the free-space map,
// the data-page list and the keyword twin, skipping catalog B+tree pages.
// When withNames is true it also decodes each record to rebuild the name
// index (the path taken when no persistent catalog is available).
func (s *Store) rebuildCatalog(withNames bool) error {
	n := s.file.PageCount()
	for id := PageID(1); uint32(id) < n; id++ {
		p, err := s.pool.Fetch(id)
		if err != nil {
			return fmt.Errorf("storm: catalog rebuild: %w", err)
		}
		if p.Type() != pageTypeSlotted {
			if err := s.pool.Unpin(id, false); err != nil {
				return err
			}
			continue
		}
		var decodeErr error
		dirty := false
		p.Records(func(slot Slot, rec []byte) bool {
			oid := OID{Page: id, Slot: slot}
			if withNames {
				obj, err := decodeObject(rec, nil)
				if err != nil {
					decodeErr = err
					return false
				}
				if _, dup := s.byName[obj.Name]; dup {
					// Crash-regressed pages can hold two live copies of a
					// replaced object (the new record's page reached disk,
					// the old record's tombstone did not). Keep the first
					// copy and tombstone the duplicate on the spot —
					// otherwise WAL replay fixes only the indexed copy and
					// the stale one resurrects at the next open. The kept
					// copy's content is then corrected by the replayed put
					// that caused the move.
					if derr := p.Delete(slot); derr != nil {
						decodeErr = derr
						return false
					}
					dirty = true
					return true
				}
				s.catalogSet(obj.Name, oid)
			}
			s.twin.bind(rec, oid)
			return true
		})
		s.pageChanged(id, p.AvailableSpace())
		if err := s.pool.Unpin(id, dirty); err != nil {
			return err
		}
		if decodeErr != nil {
			return decodeErr
		}
	}
	return nil
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byName)
}

// Pool exposes buffer-pool statistics.
func (s *Store) Pool() *BufferPool { return s.pool }

// Put inserts the object, replacing any existing object with the same
// name. It returns the object's location. With a WAL enabled the
// operation is logged before any page is touched.
func (s *Store) Put(obj *Object) (OID, error) {
	if obj.Name == "" {
		return OID{}, fmt.Errorf("%w: empty name", errBadObject)
	}
	if s.pindex != nil {
		// Refused whole: an object in the heap with a posting missing
		// would be an answer the index cannot give.
		if err := postingsFit(obj); err != nil {
			return OID{}, err
		}
	}
	s.wmu.Lock()
	var (
		oid OID
		err error
	)
	if s.wal != nil {
		err = s.wal.Append(&walRecord{Op: walPut, Name: obj.Name, Obj: obj})
	}
	if err == nil {
		oid, err = s.putUnlogged(obj)
	}
	s.wmu.Unlock()
	if err == nil {
		s.notifyMutation()
	}
	return oid, err
}

// putUnlogged performs the insert/replace without logging (used by Put and
// WAL replay).
func (s *Store) putUnlogged(obj *Object) (OID, error) {
	rec, err := encodeObject(obj)
	if err != nil {
		return OID{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.markDirty(); err != nil {
		return OID{}, err
	}

	if old, exists := s.byName[obj.Name]; exists {
		// Try an in-place update first.
		p, err := s.pool.Fetch(old.Page)
		if err != nil {
			return OID{}, err
		}
		// On either arm the old record's keywords go before its bytes do,
		// and its postings once the page is unpinned, before the new ones
		// come.
		var stale []string
		if oldRec, gerr := p.Get(old.Slot); gerr == nil {
			stale = s.unbind(oldRec, old, obj.Name)
		}
		uerr := p.Update(old.Slot, rec)
		if uerr == nil {
			s.twin.bind(rec, old)
			s.pageChanged(old.Page, p.AvailableSpace())
			err = s.pool.Unpin(old.Page, true)
			if err == nil {
				err = s.indexRemove(stale)
			}
			if err == nil {
				err = s.indexAdd(obj, old)
			}
			return old, err
		}
		// Doesn't fit: delete and reinsert elsewhere.
		if derr := p.Delete(old.Slot); derr != nil {
			s.pool.Unpin(old.Page, false)
			return OID{}, derr
		}
		s.pageChanged(old.Page, p.AvailableSpace())
		if err := s.pool.Unpin(old.Page, true); err != nil {
			return OID{}, err
		}
		if err := s.indexRemove(stale); err != nil {
			return OID{}, err
		}
		s.catalogUnset(obj.Name)
	}

	oid, err := s.insertLocked(obj.Name, rec)
	if err != nil {
		return OID{}, err
	}
	if err := s.catalogPut(obj.Name, oid); err != nil {
		return OID{}, err
	}
	if err := s.indexAdd(obj, oid); err != nil {
		return OID{}, err
	}
	return oid, nil
}

// unbind takes the record rec at oid, named name, off the keyword twin.
// On a store that keeps the posting tree it returns the record's posting
// keys, for indexRemove once rec's page is unpinned: a tree update
// beside a pinned heap page can run a small pool out of frames.
func (s *Store) unbind(rec []byte, oid OID, name string) (postings []string) {
	var posting func(key []byte)
	if s.pindex != nil {
		posting = func(key []byte) { postings = append(postings, postingKey(string(key), name)) }
	}
	s.twin.unbind(rec, oid, posting)
	return postings
}

// pageChanged is the one call every change to a heap page makes: it
// records the page's reclaimable bytes. A page not listed yet — ids only
// grow — is appended. Caller holds s.mu or is Open.
func (s *Store) pageChanged(id PageID, free int) {
	i := sort.Search(len(s.dataPages), func(i int) bool { return s.dataPages[i] >= id })
	if i == len(s.dataPages) {
		s.dataPages = append(s.dataPages, id)
		s.free.append(free)
		return
	}
	s.free.set(i, free)
}

// insertLocked places rec on a page with room, allocating a new page when
// needed. Caller holds s.mu.
func (s *Store) insertLocked(name string, rec []byte) (OID, error) {
	need := len(rec) + slotEntrySize
	// Deterministic choice: the lowest page id with enough space.
	for i := s.free.firstFit(0, need); i >= 0; i = s.free.firstFit(i+1, need) {
		id := s.dataPages[i]
		p, err := s.pool.Fetch(id)
		if err != nil {
			return OID{}, err
		}
		slot, ierr := p.Insert(rec)
		if ierr == nil {
			s.twin.bind(rec, OID{Page: id, Slot: slot})
		}
		s.pageChanged(id, p.AvailableSpace())
		if err := s.pool.Unpin(id, ierr == nil); err != nil {
			return OID{}, err
		}
		if ierr == nil {
			oid := OID{Page: id, Slot: slot}
			s.catalogSet(name, oid)
			return oid, nil
		}
		// The estimate counted tombstoned space Insert could not use;
		// move on to the next page.
	}
	// Allocate a fresh page.
	p, err := s.pool.NewPage()
	if err != nil {
		return OID{}, err
	}
	id := p.ID()
	slot, ierr := p.Insert(rec)
	if ierr != nil {
		s.pool.Unpin(id, false)
		return OID{}, ierr
	}
	s.twin.bind(rec, OID{Page: id, Slot: slot})
	s.pageChanged(id, p.AvailableSpace())
	if err := s.pool.Unpin(id, true); err != nil {
		return OID{}, err
	}
	oid := OID{Page: id, Slot: slot}
	s.catalogSet(name, oid)
	return oid, nil
}

// Get returns the object with the given name.
func (s *Store) Get(name string) (*Object, error) {
	s.mu.RLock()
	oid, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNotFound, name)
	}
	return s.GetOID(oid)
}

// GetOID returns the object at the given location.
func (s *Store) GetOID(oid OID) (*Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, err := s.pool.Fetch(oid.Page)
	if err != nil {
		return nil, err
	}
	rec, gerr := p.Get(oid.Slot)
	if gerr != nil {
		s.pool.Unpin(oid.Page, false)
		return nil, fmt.Errorf("%w: oid %v", errNotFound, oid)
	}
	obj, derr := decodeObject(rec, nil)
	if err := s.pool.Unpin(oid.Page, false); err != nil {
		return nil, err
	}
	return obj, derr
}

// Has reports whether an object with the given name exists.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.byName[name]
	return ok
}

// Delete removes the named object. With a WAL enabled the operation is
// logged before any page is touched.
func (s *Store) Delete(name string) error {
	s.wmu.Lock()
	var err error
	if s.wal != nil {
		// Logging a delete of an absent name would replay harmlessly,
		// but checking first keeps the log minimal.
		if !s.Has(name) {
			err = fmt.Errorf("%w: %q", errNotFound, name)
		} else {
			err = s.wal.Append(&walRecord{Op: walDelete, Name: name})
		}
	}
	if err == nil {
		err = s.deleteUnlogged(name)
	}
	s.wmu.Unlock()
	if err == nil {
		s.notifyMutation()
	}
	return err
}

// deleteUnlogged removes the object without logging (used by Delete and WAL
// replay).
func (s *Store) deleteUnlogged(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	oid, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", errNotFound, name)
	}
	if err := s.markDirty(); err != nil {
		return err
	}
	p, err := s.pool.Fetch(oid.Page)
	if err != nil {
		return err
	}
	var stale []string
	if rec, gerr := p.Get(oid.Slot); gerr == nil {
		stale = s.unbind(rec, oid, name)
	}
	if derr := p.Delete(oid.Slot); derr != nil {
		s.pool.Unpin(oid.Page, false)
		return derr
	}
	s.pageChanged(oid.Page, p.AvailableSpace())
	if err := s.pool.Unpin(oid.Page, true); err != nil {
		return err
	}
	if err := s.indexRemove(stale); err != nil {
		return err
	}
	s.catalogUnset(name)
	return s.catalogDelete(name)
}

// scanRunPages bounds how many pages a sequential scan reads with one
// file read, and so how long it holds the store's read lock at a time.
const scanRunPages = 32

// scanBufs recycles the buffers page runs are read into.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, scanRunPages*pageSize)
	return &b
}}

// walk is the one sequential page walker behind Scan. It visits the data
// pages in page order, scanRunPages at a time: under one hold of the read
// lock it calls visit for each live record of the window (rec aliases page
// memory and must not be retained), then, with the lock released, calls
// between — which returns false to stop.
//
// Within a window, a run of consecutive page ids the pool does not hold
// is read from the file with a single read into a scan buffer, verified
// page by page and walked there, so a scan larger than the pool neither
// pays one read per page nor evicts the frames Put and Get keep hot. A
// resident page, which may be dirty, is always pinned and read through
// the pool. Reading past the pool is sound because the read lock keeps
// writers out and a non-resident page's disk image is current (see
// BufferPool.coldRun).
func (s *Store) walk(visit func(rec []byte) error, between func() bool) error {
	s.mu.RLock()
	// dataPages is append-only: a clipped view stays what it was.
	pages := s.dataPages[:len(s.dataPages):len(s.dataPages)]
	s.mu.RUnlock()

	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf)
	for first := 0; first < len(pages); first += scanRunPages {
		err := s.walkWindow(pages[first:min(first+scanRunPages, len(pages))], *buf, visit)
		// Records ahead of a failure are still delivered, and a consumer
		// that stops among them never learns of it.
		if between != nil && !between() {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walkWindow visits the records of the given pages under the read lock.
func (s *Store) walkWindow(window []PageID, buf []byte, visit func(rec []byte) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	read := 0
	defer func() { s.pagesRead.Add(uint64(read)) }()
	var err error
	each := func(_ Slot, rec []byte) bool {
		err = visit(rec)
		return err == nil
	}
	for len(window) > 0 {
		n := s.pool.coldRun(window)
		if n == 0 {
			id := window[0]
			p, ferr := s.pool.Fetch(id)
			if ferr != nil {
				return ferr
			}
			p.Records(each)
			if uerr := s.pool.Unpin(id, false); uerr != nil {
				return uerr
			}
			n = 1
		} else {
			run := buf[:n*pageSize]
			if rerr := s.file.readRun(window[0], run); rerr != nil {
				return rerr
			}
			for i := 0; i < n && err == nil; i++ {
				imageRecords((*[pageSize]byte)(run[i*pageSize:]), each)
			}
		}
		if err != nil {
			return err
		}
		read += n
		window = window[n:]
	}
	return nil
}

// Scan calls fn for every object in page order. Returning false stops the
// scan. Objects passed to fn are fresh copies the callback may retain; fn
// runs without the store lock held.
func (s *Store) Scan(fn func(*Object) bool) error {
	var batch []*Object
	return s.walk(func(rec []byte) error {
		obj, err := decodeObject(rec, nil)
		if err == nil {
			batch = append(batch, obj)
		}
		return err
	}, func() bool {
		for i, obj := range batch {
			batch[i] = nil
			if !fn(obj) {
				return false
			}
		}
		batch = batch[:0]
		return true
	})
}

// Match returns every object satisfying the keyword query, in page order.
// This is the operation the StorM search agent performs at each peer. It
// plans from memory (matchPlanned): only the records the query can match
// are read, and only the hits are decoded and copied out of their pages.
// Match fails on a corrupt page or record that it reads as a candidate,
// not on one it has no reason to read; Scan, MatchFunc and CompactTo read
// — and vouch for — every page. Each object's Data is a fresh copy: Match
// is MatchInto with no arena.
func (s *Store) Match(query string) ([]*Object, error) {
	return s.MatchInto(query, nil)
}

// MatchInto is Match with the hits' data copied into *arena instead of one
// fresh buffer each: every Data is a read-only view of the arena clipped
// to its length (cap == len), valid for as long as the caller keeps the
// arena's bytes — grown by this call or not — unchanged. A nil arena gives
// Match's fresh copies.
func (s *Store) MatchInto(query string, arena *[]byte) ([]*Object, error) {
	return s.matchPlanned(strings.ToLower(query), arena)
}

// candBufs recycles the candidate lists of matchPlanned.
var candBufs = sync.Pool{New: func() any { return new([]OID) }}

// matchPlanned is MatchInto without a walk, under one hold of the read
// lock: the locations the keyword twin lists under q (the keyword-equality
// arm), then those of the catalog names containing q (the name arm, one
// pass over the folded names: nameList.match), sorted by page and slot —
// which is page order — and each distinct page fetched once. Every
// candidate is put to recordMatches again, which reads the record as it
// is now. q is the query lower-cased.
func (s *Store) matchPlanned(q string, arena *[]byte) ([]*Object, error) {
	if q == "" {
		return nil, nil
	}
	buf := candBufs.Get().(*[]OID)
	defer candBufs.Put(buf)
	s.mu.RLock()
	defer s.mu.RUnlock()
	cands := (*buf)[:0]
	if l := s.twin.lists[q]; l != nil {
		cands = append(cands, *l...)
	}
	s.names.match(q, func(name string) {
		if oid, ok := s.byName[name]; ok { // not deleted since it was listed
			cands = append(cands, oid)
		}
	})
	*buf = cands
	slices.SortFunc(cands, compareOIDs)
	cands = slices.Compact(cands) // an object both arms found, or a name listed twice

	var out []*Object
	var err error
	for len(cands) > 0 && err == nil {
		id := cands[0].Page
		p, ferr := s.pool.Fetch(id)
		if ferr != nil {
			return out, ferr
		}
		for ; len(cands) > 0 && cands[0].Page == id && err == nil; cands = cands[1:] {
			if p.Type() != pageTypeSlotted {
				continue // a catalog entry the tree held wrongly
			}
			rec, gerr := p.Get(cands[0].Slot)
			if gerr != nil {
				continue
			}
			var hit bool
			if hit, err = recordMatches(rec, q); hit {
				var obj *Object
				if obj, err = decodeObject(rec, arena); err == nil {
					out = append(out, obj)
				}
			}
		}
		if uerr := s.pool.Unpin(id, false); err == nil {
			err = uerr
		}
	}
	return out, err
}

// MatchFunc returns every object satisfying an arbitrary predicate —
// the hook computational-power sharing uses to run requester-shipped
// filters against local data.
func (s *Store) MatchFunc(pred func(*Object) bool) ([]*Object, error) {
	var out []*Object
	err := s.Scan(func(o *Object) bool {
		if pred(o) {
			out = append(out, o)
		}
		return true
	})
	return out, err
}

// Names returns all object names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sync flushes all dirty pages and the file to stable storage.
func (s *Store) Sync() error {
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.file.Sync()
}

// Close flushes and closes the store (checkpointing the WAL if one is
// enabled).
func (s *Store) Close() error {
	err := s.Checkpoint()
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// StoreStats summarizes a store's state for operators and tests.
type StoreStats struct {
	// Objects is the number of stored objects.
	Objects int
	// DataPages is the number of heap pages (excluding header, catalog
	// and B+tree pages).
	DataPages int
	// TotalPages is the file size in pages, including everything.
	TotalPages int
	// FreeBytes sums the reclaimable space across heap pages.
	FreeBytes int
	// PoolHits/PoolMisses/PoolEvictions are buffer pool counters.
	PoolHits, PoolMisses, PoolEvictions uint64
	// HitRate is the fraction of fetches served from memory.
	HitRate float64
	// PagesRead counts the heap pages Scan walks have read.
	PagesRead uint64
	// WALRecords counts operations logged since the WAL was opened
	// (zero when the WAL is disabled).
	WALRecords uint64
	// CatalogPersistent reports whether the B+tree catalog is active.
	CatalogPersistent bool
}

// Stats returns a snapshot of the store's statistics.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	st := StoreStats{
		Objects:           len(s.byName),
		DataPages:         len(s.dataPages),
		CatalogPersistent: s.catalog != nil,
		FreeBytes:         s.free.total(),
	}
	s.mu.RUnlock()
	st.TotalPages = int(s.file.PageCount())
	st.PoolHits, st.PoolMisses, st.PoolEvictions = s.pool.Counters()
	st.HitRate = s.pool.HitRate()
	st.PagesRead = s.pagesRead.Load()
	if s.wal != nil {
		st.WALRecords = s.wal.Appended.Load()
	}
	return st
}

// CompactTo writes a compacted copy of the store to a fresh data file at
// path: live objects only, packed densely, with none of the dead space
// left behind by deletions, replacements, or catalog/index rebuilds
// (orphaned B+tree pages). The copy is created with the given options
// (e.g. re-enable the persistent catalog or index); the source store is
// unchanged. Typical use: compact into a sibling file, close the
// original, and rename.
func (s *Store) CompactTo(path string, opts Options) error {
	dst, err := Open(path, opts)
	if err != nil {
		return err
	}
	var putErr error
	scanErr := s.Scan(func(o *Object) bool {
		if _, err := dst.Put(o); err != nil {
			putErr = fmt.Errorf("storm: compact: %w", err)
			return false
		}
		return true
	})
	if putErr == nil && scanErr != nil {
		putErr = scanErr
	}
	if putErr != nil {
		_ = dst.Close() // already failing; the copy error wins
		return putErr
	}
	return dst.Close()
}

// Abandon closes the store's file descriptors WITHOUT flushing dirty
// pages or checkpointing the WAL — it simulates a process crash. Every
// page still in the buffer pool is lost; the WAL (if enabled) survives
// and the next Open recovers from it. Only for crash testing and
// demonstrations; real shutdown is Close.
func (s *Store) Abandon() {
	if s.wal != nil {
		_ = s.wal.Close() // crash simulation discards errors by design
	}
	_ = s.file.Close() // crash simulation discards errors by design
}
