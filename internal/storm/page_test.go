package storm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.Init(5)
	if p.ID() != 5 {
		t.Fatalf("ID = %d", p.ID())
	}
	s1, err := p.Insert([]byte("alpha"))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	s2, err := p.Insert([]byte("beta"))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if s1 == s2 {
		t.Fatal("slots collide")
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get(s1) = %q, %v", got, err)
	}
	got, err = p.Get(s2)
	if err != nil || string(got) != "beta" {
		t.Fatalf("Get(s2) = %q, %v", got, err)
	}
	if liveRecords(&p) != 2 {
		t.Fatalf("live = %d", liveRecords(&p))
	}
}

func TestPageDeleteAndSlotReuse(t *testing.T) {
	var p Page
	p.Init(1)
	s1, _ := p.Insert([]byte("one"))
	s2, _ := p.Insert([]byte("two"))
	if err := p.Delete(s1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := p.Get(s1); !errors.Is(err, errBadSlot) {
		t.Fatalf("get deleted slot: %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, errBadSlot) {
		t.Fatalf("double delete: %v", err)
	}
	// New insert reuses the tombstoned slot.
	s3, err := p.Insert([]byte("three"))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if s3 != s1 {
		t.Fatalf("slot not reused: got %d want %d", s3, s1)
	}
	if got, _ := p.Get(s2); string(got) != "two" {
		t.Fatal("surviving record corrupted")
	}
	if p.SlotCount() != 2 {
		t.Fatalf("slot count grew to %d", p.SlotCount())
	}
}

func TestPageFullAndCompaction(t *testing.T) {
	var p Page
	p.Init(1)
	rec := make([]byte, 1000)
	var slots []Slot
	for {
		s, err := p.Insert(rec)
		if errors.Is(err, errPageFull) {
			break
		}
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		slots = append(slots, s)
	}
	if len(slots) != 4 { // 4072 usable bytes / 1004 per record
		t.Fatalf("inserted %d 1000-byte records, want 4", len(slots))
	}
	// Delete one record: page has a hole but no contiguous space.
	if err := p.Delete(slots[0]); err != nil {
		t.Fatal(err)
	}
	// Insert triggers compaction and succeeds.
	marker := bytes.Repeat([]byte{7}, 1000)
	s, err := p.Insert(marker)
	if err != nil {
		t.Fatalf("insert after compaction: %v", err)
	}
	got, err := p.Get(s)
	if err != nil || !bytes.Equal(got, marker) {
		t.Fatalf("record corrupted after compaction")
	}
	// Other records intact.
	for _, sl := range slots[1:] {
		if got, err := p.Get(sl); err != nil || len(got) != 1000 {
			t.Fatalf("slot %d damaged by compaction: %v", sl, err)
		}
	}
}

func TestPageRecordTooBig(t *testing.T) {
	var p Page
	p.Init(1)
	if _, err := p.Insert(make([]byte, maxRecordSize+1)); !errors.Is(err, errRecordTooBig) {
		t.Fatalf("want errRecordTooBig, got %v", err)
	}
	// Exactly maxRecordSize fits in an empty page.
	if _, err := p.Insert(make([]byte, maxRecordSize)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

func TestPageUpdateInPlace(t *testing.T) {
	var p Page
	p.Init(1)
	s, _ := p.Insert([]byte("longer-value"))
	if err := p.Update(s, []byte("short")); err != nil {
		t.Fatalf("shrinking update: %v", err)
	}
	if got, _ := p.Get(s); string(got) != "short" {
		t.Fatalf("after shrink: %q", got)
	}
	if err := p.Update(s, []byte("grown-beyond-original")); err != nil {
		t.Fatalf("growing update: %v", err)
	}
	if got, _ := p.Get(s); string(got) != "grown-beyond-original" {
		t.Fatalf("after grow: %q", got)
	}
}

func TestPageUpdateAtomicOnFull(t *testing.T) {
	var p Page
	p.Init(1)
	s, _ := p.Insert([]byte("small"))
	// Fill the page so a growing update cannot fit.
	for {
		if _, err := p.Insert(make([]byte, 500)); err != nil {
			break
		}
	}
	big := make([]byte, 3000)
	if err := p.Update(s, big); !errors.Is(err, errPageFull) {
		t.Fatalf("want errPageFull, got %v", err)
	}
	// Original record must survive the failed update.
	if got, err := p.Get(s); err != nil || string(got) != "small" {
		t.Fatalf("failed update destroyed record: %q, %v", got, err)
	}
}

func TestPageUpdateErrors(t *testing.T) {
	var p Page
	p.Init(1)
	s, _ := p.Insert([]byte("x"))
	if err := p.Update(Slot(9), []byte("y")); !errors.Is(err, errBadSlot) {
		t.Fatalf("update bad slot: %v", err)
	}
	if err := p.Update(s, make([]byte, maxRecordSize+1)); !errors.Is(err, errRecordTooBig) {
		t.Fatalf("oversize update: %v", err)
	}
	p.Delete(s)
	if err := p.Update(s, []byte("y")); !errors.Is(err, errBadSlot) {
		t.Fatalf("update deleted slot: %v", err)
	}
}

func TestPageRecordsIterationAndEarlyStop(t *testing.T) {
	var p Page
	p.Init(1)
	for i := 0; i < 5; i++ {
		p.Insert([]byte{byte(i)})
	}
	seen := 0
	p.Records(func(s Slot, rec []byte) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop failed: saw %d", seen)
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	var p Page
	p.Init(3)
	p.Insert([]byte("payload"))
	p.seal()
	if err := p.verify(3); err != nil {
		t.Fatalf("fresh page fails verify: %v", err)
	}
	p.buf[100] ^= 0xFF
	if err := p.verify(3); !errors.Is(err, errChecksum) {
		t.Fatalf("corruption not detected: %v", err)
	}
	p.buf[100] ^= 0xFF
	if err := p.verify(4); err == nil {
		t.Fatal("page id mismatch not detected")
	}
}

func TestPageFreeSpaceMonotonicity(t *testing.T) {
	var p Page
	p.Init(1)
	prev := p.FreeSpace()
	for i := 0; i < 20; i++ {
		if _, err := p.Insert(make([]byte, 100)); err != nil {
			break
		}
		now := p.FreeSpace()
		if now >= prev {
			t.Fatalf("free space did not shrink: %d -> %d", prev, now)
		}
		prev = now
	}
}

// Property: random interleavings of insert/delete/update preserve exactly
// the records a shadow map says should exist.
func TestPageShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Page
		p.Init(1)
		shadow := make(map[Slot][]byte)
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				rec := make([]byte, 1+rng.Intn(200))
				rng.Read(rec)
				s, err := p.Insert(rec)
				if errors.Is(err, errPageFull) {
					continue
				}
				if err != nil {
					return false
				}
				shadow[s] = append([]byte(nil), rec...)
			case 1: // delete random live slot
				for s := range shadow {
					if p.Delete(s) != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			case 2: // update random live slot
				for s := range shadow {
					rec := make([]byte, 1+rng.Intn(200))
					rng.Read(rec)
					err := p.Update(s, rec)
					if errors.Is(err, errPageFull) {
						break
					}
					if err != nil {
						return false
					}
					shadow[s] = append([]byte(nil), rec...)
					break
				}
			}
		}
		if liveRecords(&p) != len(shadow) {
			return false
		}
		for s, want := range shadow {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOIDString(t *testing.T) {
	oid := OID{Page: 12, Slot: 3}
	if oid.String() != "12.3" {
		t.Fatalf("OID.String() = %q", oid.String())
	}
}

func TestObjectKindString(t *testing.T) {
	if StaticObject.String() != "static" || ActiveObject.String() != "active" {
		t.Fatal("kind names wrong")
	}
	if ObjectKind(9).String() != fmt.Sprintf("kind(%d)", 9) {
		t.Fatal("unknown kind name wrong")
	}
}

// liveRecords counts the page's non-deleted records.
func liveRecords(p *Page) int {
	n := 0
	p.Records(func(Slot, []byte) bool { n++; return true })
	return n
}
