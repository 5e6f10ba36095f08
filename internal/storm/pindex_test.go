package storm

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func pindexStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(filepath.Join(dir, "pi.storm"), Options{PersistentIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPersistentIndexLookup(t *testing.T) {
	s := pindexStore(t, t.TempDir())
	defer s.Close()
	s.Put(&Object{Name: "b-song", Keywords: []string{"Jazz", "vinyl"}, Data: []byte("x")})
	s.Put(&Object{Name: "a-song", Keywords: []string{"jazz"}, Data: []byte("y")})
	s.Put(&Object{Name: "c-doc", Keywords: []string{"work"}, Data: []byte("z")})

	names, err := s.LookupKeyword("JAZZ")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a-song" || names[1] != "b-song" {
		t.Fatalf("Lookup(JAZZ) = %v", names)
	}
	if n, _ := s.pindex.Postings(); n != 4 {
		t.Fatalf("postings = %d", n)
	}
}

func TestPersistentIndexMaintainedOnReplaceAndDelete(t *testing.T) {
	s := pindexStore(t, t.TempDir())
	defer s.Close()
	s.Put(&Object{Name: "x", Keywords: []string{"old"}, Data: []byte("1")})
	s.Put(&Object{Name: "x", Keywords: []string{"new", "extra"}, Data: []byte("2")})

	if names, _ := s.LookupKeyword("old"); len(names) != 0 {
		t.Fatalf("stale posting: %v", names)
	}
	if names, _ := s.LookupKeyword("new"); len(names) != 1 {
		t.Fatalf("missing posting: %v", names)
	}
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{"new", "extra"} {
		if names, _ := s.LookupKeyword(kw); len(names) != 0 {
			t.Fatalf("posting survived delete: %s -> %v", kw, names)
		}
	}
	if n, _ := s.pindex.Postings(); n != 0 {
		t.Fatalf("postings = %d after full delete", n)
	}
}

func TestPersistentIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := pindexStore(t, dir)
	for i := 0; i < 300; i++ {
		s.Put(&Object{
			Name:     fmt.Sprintf("o%03d", i),
			Keywords: []string{fmt.Sprintf("kw%d", i%7)},
			Data:     []byte("d"),
		})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := pindexStore(t, dir)
	defer r.Close()
	names, err := r.LookupKeyword("kw3")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 300/7+1 {
		t.Fatalf("reopened lookup = %d names", len(names))
	}
	// Index agrees with a scan for every keyword.
	for k := 0; k < 7; k++ {
		kw := fmt.Sprintf("kw%d", k)
		fromIndex, _ := r.LookupKeyword(kw)
		count := 0
		r.Scan(func(o *Object) bool {
			for _, okw := range o.Keywords {
				if okw == kw {
					count++
				}
			}
			return true
		})
		if len(fromIndex) != count {
			t.Fatalf("%s: index %d vs scan %d", kw, len(fromIndex), count)
		}
	}
}

func TestPersistentIndexRebuiltFromPlainFile(t *testing.T) {
	dir := t.TempDir()
	plain, err := Open(filepath.Join(dir, "pi.storm"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		plain.Put(&Object{Name: fmt.Sprintf("p%02d", i), Keywords: []string{"k"}, Data: []byte("d")})
	}
	plain.Close()

	s := pindexStore(t, dir)
	defer s.Close()
	names, err := s.LookupKeyword("k")
	if err != nil || len(names) != 40 {
		t.Fatalf("rebuilt index lookup = %d, %v", len(names), err)
	}
}

func TestLookupKeywordWithoutIndexFails(t *testing.T) {
	s := tempStore(t, Options{})
	if _, err := s.LookupKeyword("k"); err == nil {
		t.Fatal("lookup without index succeeded")
	}
	if s.pindex != nil {
		t.Fatal("Index() non-nil when disabled")
	}
}

func TestPersistentIndexWithCatalogAndWAL(t *testing.T) {
	// All three durability extensions together, through a crash.
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(filepath.Join(dir, "all.storm"), Options{
			PersistentCatalog: true,
			PersistentIndex:   true,
			WALPath:           filepath.Join(dir, "all.wal"),
			WALSync:           true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	rng := rand.New(rand.NewSource(5))
	live := map[string]string{}
	for op := 0; op < 200; op++ {
		name := fmt.Sprintf("n%02d", rng.Intn(40))
		if rng.Intn(4) == 0 {
			if s.Delete(name) == nil {
				delete(live, name)
			}
		} else {
			kw := fmt.Sprintf("kw%d", rng.Intn(5))
			s.Put(&Object{Name: name, Keywords: []string{kw}, Data: []byte(name)})
			live[name] = kw
		}
	}
	// Crash without Close.
	s.wal.Close()
	s.file.Close()

	r := open()
	defer r.Close()
	if r.Len() != len(live) {
		t.Fatalf("recovered %d objects, want %d", r.Len(), len(live))
	}
	for k := 0; k < 5; k++ {
		kw := fmt.Sprintf("kw%d", k)
		want := 0
		for _, v := range live {
			if v == kw {
				want++
			}
		}
		got, err := r.LookupKeyword(kw)
		if err != nil || len(got) != want {
			t.Fatalf("%s: index %d, want %d (%v)", kw, len(got), want, err)
		}
	}
}
