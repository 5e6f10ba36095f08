package storm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// WAL is a logical write-ahead log giving the store crash durability:
// every Put and Delete is appended (and optionally fsynced) before the
// page mutation, and a reopening store replays the tail of the log over
// whatever subset of dirty pages reached disk. Replay is idempotent —
// records are keyed by name and re-applying an op is harmless — so a
// crash at any point loses at most the operations after the last synced
// record, never already-acknowledged ones.
//
// Record layout (length-prefixed, CRC-guarded):
//
//	uint32 length | uint32 crc of payload | payload
//	payload: uint8 op | name | (for put: full object record)
//
// A checkpoint (Store.Checkpoint) flushes all pages and truncates the
// log.

// WAL operation codes.
const (
	walPut    = 1
	walDelete = 2
)

// errBadWALRecord reports a corrupt (usually torn) log record.
var errBadWALRecord = errors.New("storm: bad WAL record")

// maxWALRecord bounds a record read so a torn length prefix cannot cause
// a giant allocation.
const maxWALRecord = pageSize * 2

// wal is an append-only operation log.
type wal struct {
	f      *os.File
	w      *bufio.Writer
	sync   bool
	closed bool

	// Appended counts records written since open. Atomic: Store.Stats
	// reads it while an Append, which runs outside the store lock, is in
	// flight.
	Appended atomic.Uint64

	// Optional metric handles, bound by the owning store: appended
	// records and per-append fsync latency.
	appends      *obs.Counter
	fsyncSeconds *obs.Histogram
}

// bindMetrics registers the WAL's metric families on reg.
func (w *wal) bindMetrics(reg *obs.Registry) {
	w.appends = reg.Counter("bestpeer_storm_wal_appends_total",
		"Records appended to the write-ahead log.")
	w.fsyncSeconds = reg.Histogram("bestpeer_storm_wal_fsync_seconds",
		"Write-ahead log fsync latency per synced append.", obs.LatencyBuckets)
}

// openWAL opens (creating if needed) the log at path. When syncEvery is
// true every append is fsynced — full durability at the cost of one
// fsync per operation; otherwise the OS flushes lazily and a crash may
// lose the most recent operations but never corrupts the store.
func openWAL(path string, syncEvery bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storm: open wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close() // already failing; the seek error is what matters
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriter(f), sync: syncEvery}, nil
}

// walRecord is one replayable operation.
type walRecord struct {
	Op   uint8
	Name string
	Obj  *Object // nil for deletes
}

func encodeWALRecord(r *walRecord) ([]byte, error) {
	var e wire.Encoder
	e.Uint8(r.Op)
	e.String(r.Name)
	if r.Op == walPut {
		rec, err := encodeObject(r.Obj)
		if err != nil {
			return nil, err
		}
		e.Bytes2(rec)
	}
	return e.Bytes(), nil
}

func decodeWALRecord(payload []byte) (*walRecord, error) {
	d := wire.NewDecoder(payload)
	r := &walRecord{Op: d.Uint8(), Name: d.String()}
	if r.Op == walPut {
		rec := d.Bytes2()
		obj, err := decodeObject(rec, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadWALRecord, err)
		}
		r.Obj = obj
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadWALRecord, err)
	}
	if r.Op != walPut && r.Op != walDelete {
		return nil, fmt.Errorf("%w: op %d", errBadWALRecord, r.Op)
	}
	return r, nil
}

// Append writes one record, flushing (and fsyncing when configured)
// before returning.
func (w *wal) Append(r *walRecord) error {
	if w.closed {
		return errClosed
	}
	payload, err := encodeWALRecord(r)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.sync {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			return err
		}
		if w.fsyncSeconds != nil {
			w.fsyncSeconds.ObserveDuration(time.Since(start))
		}
	}
	w.Appended.Add(1)
	if w.appends != nil {
		w.appends.Inc()
	}
	return nil
}

// Replay reads records from the start of the log, calling fn for each. A
// torn or corrupt tail ends replay without error — those operations were
// never acknowledged as durable.
func (w *wal) Replay(fn func(*walRecord) error) (int, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	defer w.f.Seek(0, io.SeekEnd) //nolint:errcheck
	br := bufio.NewReader(w.f)
	n := 0
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return n, nil // clean end or torn header: stop
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxWALRecord {
			return n, nil // torn length
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return n, nil // torn body
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return n, nil // torn or bit-rotted record
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return n, nil // structurally invalid: treat as torn tail
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
	}
}

// Truncate discards the log contents (after a checkpoint).
func (w *wal) Truncate() error {
	if w.closed {
		return errClosed
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log.
func (w *wal) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		_ = w.f.Close() // already failing; the flush error wins
		return err
	}
	return w.f.Close()
}
