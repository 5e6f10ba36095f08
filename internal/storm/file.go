package storm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// File header layout (page 0, not a slotted page):
//
//	offset 0:  magic "STRM"
//	offset 4:  uint16 format version
//	offset 6:  uint32 page count (including header page)
//	offset 10: uint32 meta root (B+tree catalog root page, 0 = none)
//	offset 14: uint32 index root (B+tree inverted-index root, 0 = none)
//	offset 18: uint8  dirty mark (1 = pages changed since the last checkpoint)
//
// The remainder of page 0 is reserved. A file written before the dirty
// mark existed reads as clean, which is how such a file was always read.
const (
	fileMagic     = "STRM"
	formatVersion = 2
)

// File errors.
var (
	errBadMagic   = errors.New("storm: not a storm data file")
	errBadVersion = errors.New("storm: unsupported format version")
	errClosed     = errors.New("storm: file is closed")
)

// diskFile provides page-granular I/O on a single data file. It is safe
// for concurrent use.
type diskFile struct {
	mu     sync.Mutex
	f      *os.File
	pages  uint32 // total pages including header
	meta   PageID // catalog B+tree root, invalidPage when absent
	index  PageID // inverted-index B+tree root, invalidPage when absent
	dirty  bool   // the header's dirty mark; see setDirty
	closed bool

	// Stats.
	Reads  uint64
	Writes uint64
}

// createFile creates a new, empty data file at path, failing if it exists.
func createFile(path string) (*diskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storm: create: %w", err)
	}
	df := &diskFile{f: f, pages: 1}
	if err := df.writeHeader(); err != nil {
		_ = f.Close() // already failing; header error is what matters
		os.Remove(path)
		return nil, err
	}
	return df, nil
}

// openFile opens an existing data file and validates its header.
func openFile(path string) (*diskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storm: open: %w", err)
	}
	var hdr [pageSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		_ = f.Close() // already failing; the read error is what matters
		return nil, fmt.Errorf("storm: read header: %w", err)
	}
	if string(hdr[0:4]) != fileMagic {
		_ = f.Close() // already failing; bad magic is what matters
		return nil, errBadMagic
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != formatVersion {
		_ = f.Close() // already failing; bad version is what matters
		return nil, fmt.Errorf("%w: %d", errBadVersion, v)
	}
	pages := binary.BigEndian.Uint32(hdr[6:10])
	if pages == 0 {
		pages = 1
	}
	meta := PageID(binary.BigEndian.Uint32(hdr[10:14]))
	index := PageID(binary.BigEndian.Uint32(hdr[14:18]))
	// Cross-check against the actual file size; trust the smaller so a
	// torn header cannot direct reads past EOF.
	if st, err := f.Stat(); err == nil {
		byLen := uint32(st.Size() / pageSize)
		if byLen < pages {
			pages = byLen
		}
	}
	if uint32(meta) >= pages {
		meta = invalidPage // torn header: ignore the stale root
	}
	if uint32(index) >= pages {
		index = invalidPage
	}
	return &diskFile{f: f, pages: pages, meta: meta, index: index, dirty: hdr[18] != 0}, nil
}

func (d *diskFile) writeHeader() error {
	var hdr [pageSize]byte
	copy(hdr[0:4], fileMagic)
	binary.BigEndian.PutUint16(hdr[4:6], formatVersion)
	binary.BigEndian.PutUint32(hdr[6:10], d.pages)
	binary.BigEndian.PutUint32(hdr[10:14], uint32(d.meta))
	binary.BigEndian.PutUint32(hdr[14:18], uint32(d.index))
	if d.dirty {
		hdr[18] = 1
	}
	if _, err := d.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storm: write header: %w", err)
	}
	return nil
}

// MetaRoot returns the catalog root page id recorded in the header, or
// invalidPage if none has been set.
func (d *diskFile) MetaRoot() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.meta
}

// SetMetaRoot records the catalog root page id in the header.
func (d *diskFile) SetMetaRoot(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	d.meta = id
	return d.writeHeader()
}

// IndexRoot returns the inverted-index root page id recorded in the
// header, or invalidPage if none has been set.
func (d *diskFile) IndexRoot() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index
}

// SetIndexRoot records the inverted-index root page id in the header.
func (d *diskFile) SetIndexRoot(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	d.index = id
	return d.writeHeader()
}

// isDirty reports the header's dirty mark: set, the file's pages may have
// changed since its last checkpoint, so its B+tree images (catalog, index)
// may be older or newer than its heap. A file found dirty at open was not
// closed cleanly.
func (d *diskFile) isDirty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirty
}

// setDirty records the dirty mark in the header. With sync the header is
// on stable storage before the call returns, so no page written afterwards
// can reach the disk ahead of the mark; without, the mark is as durable as
// the page writes that follow it — it survives the process, not the
// machine.
func (d *diskFile) setDirty(dirty, sync bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	d.dirty = dirty
	if err := d.writeHeader(); err != nil || !sync {
		return err
	}
	return d.f.Sync()
}

// PageCount returns the number of pages, including the header page.
func (d *diskFile) PageCount() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Allocate extends the file by one page and returns its id. The page is
// written initialized and sealed.
func (d *diskFile) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return invalidPage, errClosed
	}
	id := PageID(d.pages)
	var p Page
	p.Init(id)
	p.seal()
	if _, err := d.f.WriteAt(p.buf[:], int64(id)*pageSize); err != nil {
		return invalidPage, fmt.Errorf("storm: allocate page %d: %w", id, err)
	}
	d.pages++
	d.Writes++
	if err := d.writeHeader(); err != nil {
		return invalidPage, err
	}
	return id, nil
}

// ReadPage reads page id into p, verifying the checksum.
func (d *diskFile) ReadPage(id PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if id == invalidPage || uint32(id) >= d.pages {
		return fmt.Errorf("storm: read of page %d beyond end (%d pages)", id, d.pages)
	}
	if _, err := d.f.ReadAt(p.buf[:], int64(id)*pageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storm: read page %d: %w", id, err)
	}
	d.Reads++
	return p.verify(id)
}

// WritePage seals p and writes it at its id.
func (d *diskFile) WritePage(p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	id := p.ID()
	if id == invalidPage || uint32(id) >= d.pages {
		return fmt.Errorf("storm: write of unallocated page %d", id)
	}
	p.seal()
	if _, err := d.f.WriteAt(p.buf[:], int64(id)*pageSize); err != nil {
		return fmt.Errorf("storm: write page %d: %w", id, err)
	}
	d.Writes++
	return nil
}

// Sync flushes the file to stable storage.
func (d *diskFile) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	return d.f.Sync()
}

// Close releases the underlying file. Further operations fail with
// errClosed.
func (d *diskFile) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}
