package storm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func tempStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "data.storm"), opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func obj(name string, kws []string, size int) *Object {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return &Object{Name: name, Keywords: kws, Data: data}
}

func TestStorePutGet(t *testing.T) {
	s := tempStore(t, Options{})
	o := obj("doc-1", []string{"jazz", "music"}, 1024)
	oid, err := s.Put(o)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := s.Get("doc-1")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got.Name != "doc-1" || !bytes.Equal(got.Data, o.Data) || len(got.Keywords) != 2 {
		t.Fatalf("object mismatch: %+v", got)
	}
	byOID, err := s.GetOID(oid)
	if err != nil || byOID.Name != "doc-1" {
		t.Fatalf("GetOID: %+v, %v", byOID, err)
	}
	if !s.Has("doc-1") || s.Has("doc-2") {
		t.Fatal("Has broken")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := tempStore(t, Options{})
	if _, err := s.Get("nope"); !errors.Is(err, errNotFound) {
		t.Fatalf("want errNotFound, got %v", err)
	}
	if err := s.Delete("nope"); !errors.Is(err, errNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	if _, err := s.GetOID(OID{Page: 1, Slot: 9}); err == nil {
		t.Fatal("GetOID of absent location succeeded")
	}
}

func TestStorePutReplacesByName(t *testing.T) {
	s := tempStore(t, Options{})
	s.Put(obj("x", []string{"a"}, 100))
	s.Put(obj("x", []string{"b"}, 200))
	if s.Len() != 1 {
		t.Fatalf("replace created duplicate: Len = %d", s.Len())
	}
	got, _ := s.Get("x")
	if len(got.Data) != 200 || got.Keywords[0] != "b" {
		t.Fatalf("replacement not visible: %+v", got)
	}
	// Replace with a record too big for in-place update.
	s.Put(obj("x", []string{"c"}, 3000))
	got, _ = s.Get("x")
	if len(got.Data) != 3000 {
		t.Fatalf("grow-replace failed: %d bytes", len(got.Data))
	}
	if s.Len() != 1 {
		t.Fatalf("grow-replace duplicated: Len = %d", s.Len())
	}
}

func TestStoreRejectsEmptyNameAndOversize(t *testing.T) {
	s := tempStore(t, Options{})
	if _, err := s.Put(&Object{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Put(obj("big", nil, maxRecordSize)); !errors.Is(err, errBadObject) {
		t.Fatalf("oversize object: %v", err)
	}
}

func TestStoreDeleteFreesSpaceForReuse(t *testing.T) {
	s := tempStore(t, Options{})
	for i := 0; i < 12; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("o%02d", i), nil, 1000)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	before := s.file.PageCount()
	for i := 0; i < 12; i++ {
		if err := s.Delete(fmt.Sprintf("o%02d", i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("n%02d", i), nil, 1000)); err != nil {
			t.Fatalf("re-put %d: %v", i, err)
		}
	}
	if after := s.file.PageCount(); after != before {
		t.Fatalf("space not reused: %d pages -> %d", before, after)
	}
}

func TestStorePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.storm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		o := obj(fmt.Sprintf("obj-%03d", i), []string{fmt.Sprintf("kw%d", i%7)}, 900)
		o.Kind = ActiveObject
		o.ActiveClass = "redactor"
		if _, err := s.Put(o); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := Open(path, Options{BufferFrames: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Len() != 50 {
		t.Fatalf("reopened Len = %d", r.Len())
	}
	got, err := r.Get("obj-013")
	if err != nil {
		t.Fatalf("get after reopen: %v", err)
	}
	if got.Kind != ActiveObject || got.ActiveClass != "redactor" || len(got.Data) != 900 {
		t.Fatalf("object lost fields: %+v", got)
	}
	// Free-space map rebuilt: inserts go onto existing pages when possible.
	pagesBefore := r.file.PageCount()
	r.Delete("obj-000")
	if _, err := r.Put(obj("fresh", nil, 800)); err != nil {
		t.Fatal(err)
	}
	if r.file.PageCount() != pagesBefore {
		t.Fatal("reopen lost the free-space map")
	}
}

func TestStoreScanAndMatch(t *testing.T) {
	s := tempStore(t, Options{})
	s.Put(&Object{Name: "song-blue", Keywords: []string{"jazz"}, Data: []byte("x")})
	s.Put(&Object{Name: "song-red", Keywords: []string{"rock"}, Data: []byte("y")})
	s.Put(&Object{Name: "paper-jazz-history", Keywords: []string{"history"}, Data: []byte("z")})

	count := 0
	if err := s.Scan(func(o *Object) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("scan saw %d", count)
	}

	hits, err := s.Match("jazz")
	if err != nil {
		t.Fatal(err)
	}
	// "jazz" keyword on song-blue, substring of name on paper-jazz-history.
	if len(hits) != 2 {
		t.Fatalf("Match(jazz) = %d hits", len(hits))
	}

	hits, _ = s.Match("JAZZ")
	if len(hits) != 2 {
		t.Fatal("matching is not case-insensitive")
	}

	if hits, _ := s.Match(""); len(hits) != 0 {
		t.Fatal("empty query must match nothing")
	}

	big, err := s.MatchFunc(func(o *Object) bool { return len(o.Data) >= 1 })
	if err != nil || len(big) != 3 {
		t.Fatalf("MatchFunc = %d, %v", len(big), err)
	}
}

func TestStoreScanEarlyStop(t *testing.T) {
	s := tempStore(t, Options{})
	for i := 0; i < 10; i++ {
		s.Put(obj(fmt.Sprintf("o%d", i), nil, 10))
	}
	n := 0
	s.Scan(func(o *Object) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := tempStore(t, Options{})
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Put(obj(n, nil, 4))
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

func TestStoreSmallBufferPoolThrashes(t *testing.T) {
	// 1000 x ~1KB objects through a 4-frame pool: forces evictions and
	// dirty write-back, then verifies everything persisted.
	s := tempStore(t, Options{BufferFrames: 4})
	for i := 0; i < 1000; i++ {
		o := obj(fmt.Sprintf("obj-%04d", i), []string{fmt.Sprintf("kw%d", i%13)}, 1024)
		if _, err := s.Put(o); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.Pool().Evictions == 0 {
		t.Fatal("expected evictions with a 4-frame pool")
	}
	hits, err := s.Match("kw7")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1000/13+1 {
		t.Fatalf("Match(kw7) = %d", len(hits))
	}
	for _, h := range hits {
		if len(h.Data) != 1024 {
			t.Fatalf("object %s corrupted: %d bytes", h.Name, len(h.Data))
		}
	}
}

func TestStoreEveryPolicyPersists(t *testing.T) {
	for _, pol := range []string{"lru", "mru", "clock"} {
		t.Run(pol, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "d.storm")
			s, err := Open(path, Options{BufferFrames: 3, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if s.Pool().Policy() != pol {
				t.Fatalf("policy = %q", s.Pool().Policy())
			}
			for i := 0; i < 120; i++ {
				if _, err := s.Put(obj(fmt.Sprintf("o%03d", i), nil, 512)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path, Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != 120 {
				t.Fatalf("policy %s lost objects: %d", pol, r.Len())
			}
		})
	}
}

func TestStoreConcurrentReaders(t *testing.T) {
	s := tempStore(t, Options{BufferFrames: 8})
	for i := 0; i < 200; i++ {
		s.Put(obj(fmt.Sprintf("o%03d", i), []string{"k"}, 256))
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("o%03d", rng.Intn(200))
				o, err := s.Get(name)
				if err != nil {
					errs <- err
					return
				}
				if o.Name != name {
					errs <- fmt.Errorf("read wrong object: %s != %s", o.Name, name)
					return
				}
			}
			errs <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreStatsDuringScan reads Stats — what every metrics scrape does
// through the store gauges — while scans are bumping the pool counters.
// Its assertion is the race detector's: Stats must take the pool lock.
func TestStoreStatsDuringScan(t *testing.T) {
	s := tempStore(t, Options{BufferFrames: 8})
	for i := 0; i < 200; i++ {
		s.Put(obj(fmt.Sprintf("o%03d", i), []string{"k"}, 256))
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20 && err == nil; i++ {
			err = s.Scan(func(*Object) bool { return true })
		}
		done <- err
	}()
	for scanning := true; scanning; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			scanning = false
		default:
			s.Stats()
		}
	}
	if st := s.Stats(); st.PoolHits+st.PoolMisses == 0 {
		t.Fatalf("scans left no pool traffic in %+v", st)
	}
}

func TestStoreConcurrentMixedWorkload(t *testing.T) {
	s := tempStore(t, Options{BufferFrames: 8})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d-o%d", g, i)
				if _, err := s.Put(obj(name, []string{"k"}, 128)); err != nil {
					done <- err
					return
				}
				if _, err := s.Get(name); err != nil {
					done <- err
					return
				}
				if i%3 == 0 {
					if err := s.Delete(name); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Each goroutine deleted ceil(100/3)=34 of its 100.
	if want := 4 * (100 - 34); s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

func TestObjectMatchesSemantics(t *testing.T) {
	o := &Object{Name: "Annual-Report-2001", Keywords: []string{"finance", "Q4"}}
	cases := []struct {
		q    string
		want bool
	}{
		{"finance", true},
		{"FINANCE", true},
		{"q4", true},
		{"report", true}, // substring of name
		{"fin", false},   // keyword prefixes don't match
		{"missing", false},
		{"", false},
	}
	for _, c := range cases {
		if got := o.Matches(c.q); got != c.want {
			t.Errorf("Matches(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestObjectEncodeDecodeRoundTrip(t *testing.T) {
	o := &Object{
		Name:        "active-doc",
		Keywords:    []string{"k1", "k2", "k3"},
		Kind:        ActiveObject,
		ActiveClass: "salary-redactor",
		Data:        bytes.Repeat([]byte{0xAB}, 777),
	}
	rec, err := encodeObject(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeObject(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != o.Name || got.Kind != o.Kind || got.ActiveClass != o.ActiveClass ||
		!bytes.Equal(got.Data, o.Data) || strings.Join(got.Keywords, ",") != "k1,k2,k3" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeObjectRejectsGarbage(t *testing.T) {
	if _, err := decodeObject([]byte{99, 1, 2, 3}); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := decodeObject(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	o := &Object{Name: "x", Data: []byte("d")}
	rec, _ := encodeObject(o)
	if _, err := decodeObject(append(rec, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
