// Package storm is a persistent object storage manager, the Go substitute
// for StorM, the "100% Java persistent storage manager" each BestPeer node
// in the paper runs. It provides slotted heap pages on a single data file,
// a buffer pool with extensible replacement strategies (StorM's published
// contribution), and an object store with keyword scans that mobile agents
// query through a stable API.
package storm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// pageSize is the fixed size of every page on disk.
const pageSize = 4096

// PageID identifies a page within the data file. Page 0 is the file
// header; data pages start at 1.
type PageID uint32

// invalidPage is the zero PageID, never used for data.
const invalidPage PageID = 0

// Slot numbers records within a page.
type Slot uint16

// Page layout:
//
//	offset 0:  uint32 checksum (CRC-32 of bytes 4..PageSize)
//	offset 4:  uint32 page id
//	offset 8:  uint16 slot count
//	offset 10: uint16 free-space pointer (start of unused region)
//	offset 12: uint8  page type (slotted data page or B+tree node)
//	offset 13: record data grows upward from here
//	...        slot directory grows downward from pageSize
//
// Each slot directory entry is 4 bytes: uint16 offset, uint16 length.
// A deleted slot has offset == 0 (record space is not reclaimed until
// compaction).
const (
	pageHeaderSize = 13
	slotEntrySize  = 4
)

// Page types stored at offset 12. The data file interleaves heap pages
// and catalog B+tree nodes; the type byte lets the catalog rebuild skip
// non-heap pages.
const (
	pageTypeBTreeLeaf     = 1
	pageTypeBTreeInternal = 2
	pageTypeSlotted       = 3
)

// Page errors.
var (
	errPageFull     = errors.New("storm: page full")
	errBadSlot      = errors.New("storm: invalid slot")
	errRecordTooBig = errors.New("storm: record exceeds page capacity")
	errChecksum     = errors.New("storm: page checksum mismatch")
)

// maxRecordSize is the largest record a single page can hold.
const maxRecordSize = pageSize - pageHeaderSize - slotEntrySize

// Page is an in-memory image of one disk page.
type Page struct {
	buf [pageSize]byte
}

// InitPage formats the buffer as an empty slotted page with the given id.
func (p *Page) Init(id PageID) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.BigEndian.PutUint32(p.buf[4:8], uint32(id))
	binary.BigEndian.PutUint16(p.buf[8:10], 0)
	binary.BigEndian.PutUint16(p.buf[10:12], pageHeaderSize)
	p.buf[12] = pageTypeSlotted
}

// Type returns the page-type byte.
func (p *Page) Type() uint8 { return p.buf[12] }

// ID returns the page id stored in the header.
func (p *Page) ID() PageID {
	return PageID(binary.BigEndian.Uint32(p.buf[4:8]))
}

// SlotCount returns the number of slot directory entries (including
// deleted ones).
func (p *Page) SlotCount() int {
	return int(binary.BigEndian.Uint16(p.buf[8:10]))
}

func (p *Page) freePtr() int {
	return int(binary.BigEndian.Uint16(p.buf[10:12]))
}

func (p *Page) setFreePtr(v int) {
	binary.BigEndian.PutUint16(p.buf[10:12], uint16(v))
}

func (p *Page) setSlotCount(v int) {
	binary.BigEndian.PutUint16(p.buf[8:10], uint16(v))
}

// slotPos returns the byte offset of slot s's directory entry.
func slotPos(s Slot) int { return pageSize - (int(s)+1)*slotEntrySize }

func (p *Page) slotEntry(s Slot) (off, length int) {
	pos := slotPos(s)
	return int(binary.BigEndian.Uint16(p.buf[pos : pos+2])),
		int(binary.BigEndian.Uint16(p.buf[pos+2 : pos+4]))
}

func (p *Page) setSlotEntry(s Slot, off, length int) {
	pos := slotPos(s)
	binary.BigEndian.PutUint16(p.buf[pos:pos+2], uint16(off))
	binary.BigEndian.PutUint16(p.buf[pos+2:pos+4], uint16(length))
}

// FreeSpace returns the bytes available for a new record, accounting for
// the slot entry it would need.
func (p *Page) FreeSpace() int {
	free := pageSize - p.SlotCount()*slotEntrySize - p.freePtr() - slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// AvailableSpace returns the bytes a new record could occupy after
// compaction: the contiguous free region plus tombstoned record space.
func (p *Page) AvailableSpace() int {
	avail := p.FreeSpace() + p.wasted()
	if avail < 0 {
		return 0
	}
	return avail
}

// Insert stores rec in the page and returns its slot. Deleted slots are
// reused for the directory entry but record bytes always come from the
// free region (compaction reclaims holes).
func (p *Page) Insert(rec []byte) (Slot, error) {
	if len(rec) > maxRecordSize {
		return 0, errRecordTooBig
	}
	// Prefer a deleted slot's directory entry.
	slot := Slot(p.SlotCount())
	reused := false
	for s := Slot(0); int(s) < p.SlotCount(); s++ {
		if off, _ := p.slotEntry(s); off == 0 {
			slot = s
			reused = true
			break
		}
	}
	need := len(rec)
	if !reused {
		need += slotEntrySize
	}
	if pageSize-p.SlotCount()*slotEntrySize-p.freePtr() < need {
		if p.wasted() >= len(rec) {
			p.compact()
		}
		if pageSize-p.SlotCount()*slotEntrySize-p.freePtr() < need {
			return 0, errPageFull
		}
	}
	off := p.freePtr()
	copy(p.buf[off:], rec)
	p.setFreePtr(off + len(rec))
	if !reused {
		p.setSlotCount(p.SlotCount() + 1)
	}
	p.setSlotEntry(slot, off, len(rec))
	return slot, nil
}

// Get returns the record stored at slot s. The returned slice aliases the
// page buffer; callers must copy if they retain it past unpin.
func (p *Page) Get(s Slot) ([]byte, error) {
	if int(s) >= p.SlotCount() {
		return nil, errBadSlot
	}
	off, length := p.slotEntry(s)
	if off == 0 {
		return nil, errBadSlot
	}
	return p.buf[off : off+length], nil
}

// Delete removes the record at slot s. The directory entry is tombstoned;
// record bytes are reclaimed by compaction on demand.
func (p *Page) Delete(s Slot) error {
	if int(s) >= p.SlotCount() {
		return errBadSlot
	}
	if off, _ := p.slotEntry(s); off == 0 {
		return errBadSlot
	}
	p.setSlotEntry(s, 0, 0)
	return nil
}

// Update replaces the record at slot s. If the new record fits in the old
// space it is updated in place; otherwise the old space is tombstoned and
// the record reinserted under the same slot.
func (p *Page) Update(s Slot, rec []byte) error {
	if int(s) >= p.SlotCount() {
		return errBadSlot
	}
	off, length := p.slotEntry(s)
	if off == 0 {
		return errBadSlot
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlotEntry(s, off, len(rec))
		return nil
	}
	if len(rec) > maxRecordSize {
		return errRecordTooBig
	}
	// Need fresh space.
	if pageSize-p.SlotCount()*slotEntrySize-p.freePtr() < len(rec) {
		p.setSlotEntry(s, 0, 0)
		if p.wasted() >= len(rec) {
			p.compact()
		}
		if pageSize-p.SlotCount()*slotEntrySize-p.freePtr() < len(rec) {
			// Restore the original entry so the failed update is atomic.
			p.setSlotEntry(s, off, length)
			return errPageFull
		}
	}
	noff := p.freePtr()
	copy(p.buf[noff:], rec)
	p.setFreePtr(noff + len(rec))
	p.setSlotEntry(s, noff, len(rec))
	return nil
}

// wasted returns bytes occupied by tombstoned records.
func (p *Page) wasted() int {
	used := 0
	for s := Slot(0); int(s) < p.SlotCount(); s++ {
		if off, length := p.slotEntry(s); off != 0 {
			used += length
		}
	}
	return p.freePtr() - pageHeaderSize - used
}

// compact rewrites live records contiguously, reclaiming tombstoned space.
func (p *Page) compact() {
	var tmp [pageSize]byte
	w := pageHeaderSize
	for s := Slot(0); int(s) < p.SlotCount(); s++ {
		off, length := p.slotEntry(s)
		if off == 0 {
			continue
		}
		copy(tmp[w:], p.buf[off:off+length])
		p.setSlotEntry(s, w, length)
		w += length
	}
	copy(p.buf[pageHeaderSize:w], tmp[pageHeaderSize:w])
	p.setFreePtr(w)
}

// Records calls fn for every live record in the page. fn must not retain
// the slice. Iteration stops if fn returns false.
func (p *Page) Records(fn func(s Slot, rec []byte) bool) {
	for s := Slot(0); int(s) < p.SlotCount(); s++ {
		off, length := p.slotEntry(s)
		if off == 0 {
			continue
		}
		if !fn(s, p.buf[off:off+length]) {
			return
		}
	}
}

// seal computes and stores the page checksum before the page is written
// to disk.
func (p *Page) seal() {
	sum := crc32.ChecksumIEEE(p.buf[4:])
	binary.BigEndian.PutUint32(p.buf[0:4], sum)
}

// verify checks the stored checksum after a page is read from disk.
func (p *Page) verify(want PageID) error {
	sum := crc32.ChecksumIEEE(p.buf[4:])
	if stored := binary.BigEndian.Uint32(p.buf[0:4]); stored != sum {
		return fmt.Errorf("%w: page %d", errChecksum, want)
	}
	if id := p.ID(); id != want {
		return fmt.Errorf("storm: page id mismatch: read %d, want %d", id, want)
	}
	return nil
}
