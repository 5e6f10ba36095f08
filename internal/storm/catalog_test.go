package storm

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

func TestPersistentCatalogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.storm")
	s, err := Open(path, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("o%04d", i), []string{"k"}, 700)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Delete some, replace others.
	for i := 0; i < 500; i += 5 {
		if err := s.Delete(fmt.Sprintf("o%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 500; i += 5 {
		if _, err := s.Put(obj(fmt.Sprintf("o%04d", i), []string{"r"}, 2900)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.catalog == nil {
		t.Fatal("catalog not loaded from disk")
	}
	if r.Len() != want {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), want)
	}
	// Spot-check objects through the catalog-loaded map.
	got, err := r.Get("o0491")
	if err != nil || len(got.Data) != 2900 {
		t.Fatalf("replaced object wrong after reopen: %d bytes, %v", len(got.Data), err)
	}
	if _, err := r.Get("o0490"); err == nil {
		t.Fatal("deleted object resurrected")
	}
	// The catalog agrees with the in-memory map entry for entry.
	n := 0
	err = r.catalog.Ascend(func(name string, oid OID) bool {
		if r.byName[name] != oid {
			t.Fatalf("catalog mismatch for %s: %v != %v", name, oid, r.byName[name])
		}
		n++
		return true
	})
	if err != nil || n != want {
		t.Fatalf("catalog entries = %d, %v", n, err)
	}
}

func TestPersistentCatalogMixedPages(t *testing.T) {
	// Heap pages and B+tree pages interleave in one file; scans must only
	// visit heap pages.
	s, err := Open(filepath.Join(t.TempDir(), "mix.storm"), Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		s.Put(obj(fmt.Sprintf("m%04d", i), []string{"kw"}, 500))
	}
	count := 0
	if err := s.Scan(func(o *Object) bool { count++; return true }); err != nil {
		t.Fatalf("scan across mixed pages: %v", err)
	}
	if count != 300 {
		t.Fatalf("scan saw %d objects", count)
	}
	hits, err := s.Match("kw")
	if err != nil || len(hits) != 300 {
		t.Fatalf("match = %d, %v", len(hits), err)
	}
}

func TestCatalogFileOpensWithoutCatalogOption(t *testing.T) {
	// A file written with a catalog still opens correctly in scan mode.
	dir := t.TempDir()
	path := filepath.Join(dir, "c.storm")
	s, err := Open(path, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put(obj(fmt.Sprintf("x%03d", i), nil, 100))
	}
	s.Close()

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 100 {
		t.Fatalf("scan-mode Len = %d", r.Len())
	}
	if _, err := r.Get("x050"); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWithoutCatalogRefusesBadRecord: Open without the catalog reads
// every record's name from its page, and a record decodeObject rejects
// fails the open with errBadObject — a break in the name, and breaks after
// the keywords: a data field that runs past the record, and one that
// leaves a trailing byte.
func TestOpenWithoutCatalogRefusesBadRecord(t *testing.T) {
	const size = 100 // < 128: the data length is one byte, just ahead of the data
	for _, tc := range []struct {
		name   string
		damage func(rec []byte)
	}{
		{"name-runs-past-record", func(rec []byte) { rec[1] = 127 }},
		{"data-runs-past-record", func(rec []byte) { rec[len(rec)-size-1] = size + 1 }},
		{"trailing-byte", func(rec []byte) { rec[len(rec)-size-1] = size - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "data.storm")
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := s.Put(obj(fmt.Sprintf("obj-%d", i), []string{"kw"}, size)); err != nil {
					t.Fatal(err)
				}
			}
			oid := s.byName["obj-5"]
			p, err := s.pool.Fetch(oid.Page)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := p.Get(oid.Slot)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(rec)
			if _, err := decodeObject(rec, nil); !errors.Is(err, errBadObject) {
				t.Fatalf("decodeObject of the damaged record: %v, want errBadObject", err)
			}
			if err := s.pool.Unpin(oid.Page, true); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if r, err := Open(path, Options{}); !errors.Is(err, errBadObject) {
				if err == nil {
					r.Close()
				}
				t.Fatalf("Open over the damaged record: %v, want errBadObject", err)
			}
		})
	}
}

func TestPlainFileGainsCatalogOnReopen(t *testing.T) {
	// A file written without a catalog gets one when reopened with the
	// option.
	dir := t.TempDir()
	path := filepath.Join(dir, "p.storm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put(obj(fmt.Sprintf("y%02d", i), nil, 64))
	}
	s.Close()

	r, err := Open(path, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.catalog == nil {
		t.Fatal("catalog not built")
	}
	if n, err := r.catalog.Len(); err != nil || n != 50 {
		t.Fatalf("built catalog has %d entries, %v", n, err)
	}
	r.Close()

	// And it persists.
	r2, err := Open(path, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 50 {
		t.Fatalf("second reopen Len = %d", r2.Len())
	}
}

func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "st.storm"), Options{
		PersistentCatalog: true,
		WALPath:           filepath.Join(dir, "st.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 25; i++ {
		s.Put(obj(fmt.Sprintf("s%02d", i), nil, 400))
	}
	s.Get("s03")
	st := s.Stats()
	if st.Objects != 25 {
		t.Fatalf("Objects = %d", st.Objects)
	}
	if st.DataPages == 0 || st.TotalPages <= st.DataPages {
		t.Fatalf("pages: data=%d total=%d (catalog pages must exist)", st.DataPages, st.TotalPages)
	}
	if !st.CatalogPersistent {
		t.Fatal("catalog flag not set")
	}
	if st.WALRecords != 25 {
		t.Fatalf("WALRecords = %d", st.WALRecords)
	}
	if st.HitRate <= 0 || st.PoolHits == 0 {
		t.Fatalf("pool stats empty: %+v", st)
	}
	if st.FreeBytes <= 0 {
		t.Fatalf("FreeBytes = %d", st.FreeBytes)
	}
}

func TestCompactToReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "fat.storm"), Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 400; i++ {
		s.Put(obj(fmt.Sprintf("f%03d", i), []string{"kw"}, 900))
	}
	// Delete three quarters; the file keeps its pages.
	for i := 0; i < 400; i++ {
		if i%4 != 0 {
			s.Delete(fmt.Sprintf("f%03d", i))
		}
	}
	fatPages := s.Stats().TotalPages

	dstPath := filepath.Join(dir, "slim.storm")
	if err := s.CompactTo(dstPath, Options{PersistentCatalog: true}); err != nil {
		t.Fatal(err)
	}
	slim, err := Open(dstPath, Options{PersistentCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	defer slim.Close()
	if slim.Len() != 100 {
		t.Fatalf("compacted Len = %d, want 100", slim.Len())
	}
	slimPages := slim.Stats().TotalPages
	if slimPages*2 >= fatPages {
		t.Fatalf("compaction ineffective: %d pages -> %d", fatPages, slimPages)
	}
	// Contents intact.
	got, err := slim.Get("f096")
	if err != nil || len(got.Data) != 900 {
		t.Fatalf("compacted object: %v %v", got, err)
	}
	// The source is untouched.
	if s.Len() != 100 {
		t.Fatalf("source mutated: %d", s.Len())
	}
}
