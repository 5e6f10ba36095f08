package storm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempFile(t *testing.T) *diskFile {
	t.Helper()
	f, err := createFile(filepath.Join(t.TempDir(), "f.storm"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDiskFileCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.storm")
	f, err := createFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	if err := f.ReadPage(id, &p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert([]byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := openFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.PageCount() != 2 {
		t.Fatalf("page count = %d", g.PageCount())
	}
	var q Page
	if err := g.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	got, err := q.Get(0)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("record = %q, %v", got, err)
	}
}

func TestDiskFileRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, make([]byte, pageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openFile(path); !errors.Is(err, errBadMagic) {
		t.Fatalf("want errBadMagic, got %v", err)
	}
}

func TestDiskFileCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.storm")
	f, err := createFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := createFile(path); err == nil {
		t.Fatal("createFile overwrote an existing file")
	}
}

func TestDiskFileBoundsChecks(t *testing.T) {
	f := tempFile(t)
	var p Page
	if err := f.ReadPage(invalidPage, &p); err == nil {
		t.Fatal("read of header page as data succeeded")
	}
	if err := f.ReadPage(99, &p); err == nil {
		t.Fatal("read past end succeeded")
	}
	p.Init(50)
	if err := f.WritePage(&p); err == nil {
		t.Fatal("write of unallocated page succeeded")
	}
}

func TestDiskFileClosedOps(t *testing.T) {
	f := tempFile(t)
	id, _ := f.Allocate()
	f.Close()
	var p Page
	if err := f.ReadPage(id, &p); !errors.Is(err, errClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.Allocate(); !errors.Is(err, errClosed) {
		t.Fatalf("allocate after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, errClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDiskFileDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.storm")
	f, _ := createFile(path)
	id, _ := f.Allocate()
	f.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[pageSize+200] ^= 0xFF // flip a byte inside page 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := openFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var p Page
	if err := g.ReadPage(id, &p); !errors.Is(err, errChecksum) {
		t.Fatalf("corruption undetected: %v", err)
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 4, newLRU())
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(id); err != nil {
		t.Fatal(err)
	}
	if bp.Hits != 1 {
		t.Fatalf("hits = %d", bp.Hits)
	}
	bp.Unpin(id, false)
	if bp.HitRate() <= 0 {
		t.Fatalf("hit rate = %v", bp.HitRate())
	}
}

func TestBufferPoolEvictionWritesDirty(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 2, newLRU())
	// Fill two frames with dirty pages, then force eviction via a third.
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID())
		if err := bp.Unpin(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	if bp.Evictions == 0 || bp.DirtyFlush == 0 {
		t.Fatalf("evictions=%d dirtyflush=%d", bp.Evictions, bp.DirtyFlush)
	}
	// The evicted page's data must be readable (it was flushed).
	p, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := p.Get(0); err != nil || rec[0] != 0 {
		t.Fatalf("evicted page lost data: %v %v", rec, err)
	}
	bp.Unpin(ids[0], false)
}

func TestBufferPoolAllPinnedFails(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 2, newLRU())
	for i := 0; i < 2; i++ {
		if _, err := bp.NewPage(); err != nil {
			t.Fatal(err)
		}
		// Intentionally left pinned.
	}
	if _, err := bp.NewPage(); !errors.Is(err, errNoFrames) {
		t.Fatalf("want errNoFrames, got %v", err)
	}
}

// pinCount reports the pin count of page id, or 0 if not resident.
func pinCount(b *BufferPool, id PageID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.table[id]; ok {
		return b.meta[f].pins
	}
	return 0
}

// resident reports whether page id is in the pool.
func resident(b *BufferPool, id PageID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.table[id]
	return ok
}

func TestBufferPoolPinCounting(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 2, newLRU())
	p, _ := bp.NewPage()
	id := p.ID()
	if _, err := bp.Fetch(id); err != nil { // second pin
		t.Fatal(err)
	}
	if pinCount(bp, id) != 2 {
		t.Fatalf("pin count = %d", pinCount(bp, id))
	}
	bp.Unpin(id, false)
	if pinCount(bp, id) != 1 {
		t.Fatalf("pin count = %d", pinCount(bp, id))
	}
	bp.Unpin(id, false)
	if err := bp.Unpin(id, false); !errors.Is(err, errNotPinned) {
		t.Fatalf("over-unpin: %v", err)
	}
	if err := bp.Unpin(999, false); !errors.Is(err, errNotPinned) {
		t.Fatalf("unpin absent: %v", err)
	}
}

func TestBufferPoolPinnedPagesSurviveEviction(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 3, newLRU())
	p, _ := bp.NewPage()
	pinned := p.ID()
	// Churn through many other pages; the pinned page must stay resident.
	for i := 0; i < 10; i++ {
		q, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(q.ID(), false)
	}
	if !resident(bp, pinned) {
		t.Fatal("pinned page was evicted")
	}
	bp.Unpin(pinned, false)
}

func TestBufferPoolFlush(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 4, newLRU())
	p, _ := bp.NewPage()
	id := p.ID()
	p.Insert([]byte("flush-me"))
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read straight from disk, bypassing the pool.
	var q Page
	if err := f.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if rec, err := q.Get(0); err != nil || string(rec) != "flush-me" {
		t.Fatalf("FlushAll did not persist: %q %v", rec, err)
	}
}

func TestBufferPoolCapacityFloor(t *testing.T) {
	f := tempFile(t)
	bp := newBufferPool(f, 0, nil)
	if len(bp.frames) != 1 {
		t.Fatalf("capacity = %d", len(bp.frames))
	}
	if bp.Policy() != "lru" {
		t.Fatalf("default policy = %q", bp.Policy())
	}
}

func TestBufferPoolSequentialScanMRUBeatsLRU(t *testing.T) {
	// The classic StorM demonstration: repeated sequential scans over a
	// set slightly larger than the pool. LRU evicts exactly the page it
	// will need next (zero hits); MRU retains a stable prefix.
	run := func(rep replacer) float64 {
		f := tempFile(t)
		bp := newBufferPool(f, 8, rep)
		var ids []PageID
		for i := 0; i < 10; i++ {
			p, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, p.ID())
			bp.Unpin(p.ID(), false)
		}
		bp.Hits, bp.Misses = 0, 0
		for scan := 0; scan < 20; scan++ {
			for _, id := range ids {
				if _, err := bp.Fetch(id); err != nil {
					t.Fatal(err)
				}
				bp.Unpin(id, false)
			}
		}
		return bp.HitRate()
	}
	lru := run(newLRU())
	mru := run(newMRU())
	if mru <= lru {
		t.Fatalf("MRU (%.2f) should beat LRU (%.2f) on sequential flooding", mru, lru)
	}
}
