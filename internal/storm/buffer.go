package storm

import (
	"errors"
	"fmt"
	"sync"
)

// Buffer pool errors.
var (
	errNoFrames  = errors.New("storm: all buffer frames pinned")
	errNotPinned = errors.New("storm: page not pinned")
)

type frameMeta struct {
	page  PageID
	pins  int
	dirty bool
	used  bool
}

// BufferPool caches pages in a fixed set of frames, delegating victim
// selection to a pluggable replacer. All methods are safe for concurrent
// use, but the contents of a fetched *Page are only protected while the
// page is pinned and callers mutating a page must serialize among
// themselves (Store does).
type BufferPool struct {
	mu     sync.Mutex
	file   *diskFile
	frames []Page
	meta   []frameMeta
	table  map[PageID]int
	free   []int
	rep    replacer

	// Stats.
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	DirtyFlush uint64
}

// newBufferPool creates a pool of n frames over file using rep for
// replacement. n must be at least 1.
func newBufferPool(file *diskFile, n int, rep replacer) *BufferPool {
	if n < 1 {
		n = 1
	}
	if rep == nil {
		rep = newLRU()
	}
	rep.reserve(n)
	bp := &BufferPool{
		file:   file,
		frames: make([]Page, n),
		meta:   make([]frameMeta, n),
		table:  make(map[PageID]int, n),
		rep:    rep,
	}
	for i := n - 1; i >= 0; i-- {
		bp.free = append(bp.free, i)
	}
	return bp
}

// Policy returns the replacement policy name.
func (b *BufferPool) Policy() string { return b.rep.Name() }

// Fetch pins page id and returns its in-memory image, reading from disk
// on a miss. Every Fetch must be paired with an Unpin.
func (b *BufferPool) Fetch(id PageID) (*Page, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	if f, ok := b.table[id]; ok {
		b.Hits++
		m := &b.meta[f]
		if m.pins == 0 {
			b.rep.Remove(f)
		}
		m.pins++
		return &b.frames[f], nil
	}

	b.Misses++
	f, err := b.victimLocked()
	if err != nil {
		return nil, err
	}
	if err := b.file.ReadPage(id, &b.frames[f]); err != nil {
		// Return the frame to the free list; nothing valid is in it.
		b.meta[f] = frameMeta{}
		b.free = append(b.free, f)
		return nil, err
	}
	b.meta[f] = frameMeta{page: id, pins: 1, used: true}
	b.table[id] = f
	return &b.frames[f], nil
}

// NewPage allocates a fresh page on disk, pins it and returns it.
func (b *BufferPool) NewPage() (*Page, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	f, err := b.victimLocked()
	if err != nil {
		return nil, err
	}
	id, err := b.file.Allocate()
	if err != nil {
		b.meta[f] = frameMeta{}
		b.free = append(b.free, f)
		return nil, err
	}
	b.frames[f].Init(id)
	b.meta[f] = frameMeta{page: id, pins: 1, dirty: true, used: true}
	b.table[id] = f
	return &b.frames[f], nil
}

// victimLocked returns a usable frame, evicting if necessary. Caller holds
// b.mu.
func (b *BufferPool) victimLocked() (int, error) {
	if n := len(b.free); n > 0 {
		f := b.free[n-1]
		b.free = b.free[:n-1]
		return f, nil
	}
	f, ok := b.rep.Victim()
	if !ok {
		return 0, errNoFrames
	}
	m := &b.meta[f]
	if m.dirty {
		if err := b.file.WritePage(&b.frames[f]); err != nil {
			// Re-register the frame; the caller sees the error.
			b.rep.Insert(f)
			return 0, err
		}
		b.DirtyFlush++
	}
	b.Evictions++
	delete(b.table, m.page)
	*m = frameMeta{}
	return f, nil
}

// Unpin releases one pin on page id. dirty marks the page as modified.
// The frame becomes evictable when its pin count reaches zero.
func (b *BufferPool) Unpin(id PageID, dirty bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.table[id]
	if !ok {
		return fmt.Errorf("%w: page %d not resident", errNotPinned, id)
	}
	m := &b.meta[f]
	if m.pins == 0 {
		return fmt.Errorf("%w: page %d pin count already zero", errNotPinned, id)
	}
	m.pins--
	if dirty {
		m.dirty = true
	}
	if m.pins == 0 {
		b.rep.Insert(f)
	}
	return nil
}

// FlushAll writes every dirty resident page to disk.
func (b *BufferPool) FlushAll() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for f := range b.meta {
		m := &b.meta[f]
		if !m.used || !m.dirty {
			continue
		}
		if err := b.file.WritePage(&b.frames[f]); err != nil {
			return err
		}
		m.dirty = false
		b.DirtyFlush++
	}
	return nil
}

// Counters snapshots the hit, miss and eviction counts under the pool
// lock. Fetches bump the fields under that lock, so this is the only
// race-free way to read them while the pool is in use.
func (b *BufferPool) Counters() (hits, misses, evictions uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Hits, b.Misses, b.Evictions
}

// HitRate returns the fraction of fetches served from memory.
func (b *BufferPool) HitRate() float64 {
	hits, misses, _ := b.Counters()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
