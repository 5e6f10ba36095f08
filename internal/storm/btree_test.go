package storm

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func newTree(t *testing.T, frames int) (*btree, *BufferPool) {
	t.Helper()
	f, err := createFile(filepath.Join(t.TempDir(), "t.storm"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pool := newBufferPool(f, frames, newLRU())
	tr, err := newBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

func TestBTreeEmpty(t *testing.T) {
	tr, _ := newTree(t, 8)
	if _, found, err := tr.Get("missing"); err != nil || found {
		t.Fatalf("empty get: found=%v err=%v", found, err)
	}
	if n, err := tr.Len(); err != nil || n != 0 {
		t.Fatalf("empty len = %d, %v", n, err)
	}
	if ok, err := tr.Delete("missing"); err != nil || ok {
		t.Fatalf("empty delete: %v %v", ok, err)
	}
}

func TestBTreePutGetFewKeys(t *testing.T) {
	tr, _ := newTree(t, 8)
	keys := []string{"mango", "apple", "cherry", "banana"}
	for i, k := range keys {
		if err := tr.Put(k, OID{Page: PageID(i + 1), Slot: Slot(i)}); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	for i, k := range keys {
		oid, found, err := tr.Get(k)
		if err != nil || !found {
			t.Fatalf("get %s: found=%v err=%v", k, found, err)
		}
		if oid.Page != PageID(i+1) || oid.Slot != Slot(i) {
			t.Fatalf("get %s = %v", k, oid)
		}
	}
	if _, found, _ := tr.Get("durian"); found {
		t.Fatal("phantom key")
	}
}

func TestBTreeReplace(t *testing.T) {
	tr, _ := newTree(t, 8)
	tr.Put("k", OID{Page: 1, Slot: 2})
	tr.Put("k", OID{Page: 9, Slot: 7})
	oid, found, _ := tr.Get("k")
	if !found || oid.Page != 9 || oid.Slot != 7 {
		t.Fatalf("replace failed: %v", oid)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Fatalf("replace duplicated: len=%d", n)
	}
}

func TestBTreeManyKeysSplits(t *testing.T) {
	tr, pool := newTree(t, 64)
	const n = 5000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%06d", i*7919%n)
		if err := tr.Put(key, OID{Page: PageID(i + 1), Slot: Slot(i % 100)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if count, err := tr.Len(); err != nil || count != n {
		t.Fatalf("len = %d, %v", count, err)
	}
	// The tree must have grown past a single leaf.
	if tr.Root() == invalidPage {
		t.Fatal("invalid root")
	}
	for i := 0; i < n; i += 97 {
		key := fmt.Sprintf("key-%06d", i*7919%n)
		oid, found, err := tr.Get(key)
		if err != nil || !found {
			t.Fatalf("get %s after splits: %v %v", key, found, err)
		}
		if oid.Page != PageID(i+1) {
			t.Fatalf("get %s = %v, want page %d", key, oid, i+1)
		}
	}
	_ = pool
}

func TestBTreeAscendSorted(t *testing.T) {
	tr, _ := newTree(t, 32)
	var keys []string
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(100000))
		keys = append(keys, k)
		tr.Put(k, OID{Page: 1, Slot: 0})
	}
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	var got []string
	if err := tr.Ascend(func(k string, _ OID) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(uniq) {
		t.Fatalf("ascend saw %d keys, want %d", len(got), len(uniq))
	}
	for i := range got {
		if got[i] != uniq[i] {
			t.Fatalf("ascend order wrong at %d: %s != %s", i, got[i], uniq[i])
		}
	}
	// Early stop.
	count := 0
	tr.Ascend(func(string, OID) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestBTreeDelete(t *testing.T) {
	tr, _ := newTree(t, 32)
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("k%04d", i), OID{Page: PageID(i + 1)})
	}
	for i := 0; i < 1000; i += 2 {
		ok, err := tr.Delete(fmt.Sprintf("k%04d", i))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 1000; i++ {
		_, found, err := tr.Get(fmt.Sprintf("k%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if found != (i%2 == 1) {
			t.Fatalf("key %d: found=%v", i, found)
		}
	}
	if n, _ := tr.Len(); n != 500 {
		t.Fatalf("len after deletes = %d", n)
	}
}

func TestBTreeKeyTooLong(t *testing.T) {
	tr, _ := newTree(t, 8)
	long := string(make([]byte, maxKeyLen+1))
	if err := tr.Put(long, OID{}); err != errKeyTooLong {
		t.Fatalf("put long key: %v", err)
	}
	if _, _, err := tr.Get(long); err != errKeyTooLong {
		t.Fatalf("get long key: %v", err)
	}
	if _, err := tr.Delete(long); err != errKeyTooLong {
		t.Fatalf("delete long key: %v", err)
	}
	// Exactly maxKeyLen works.
	max := string(bytesOf('a', maxKeyLen))
	if err := tr.Put(max, OID{Page: 1}); err != nil {
		t.Fatalf("max key: %v", err)
	}
	if _, found, _ := tr.Get(max); !found {
		t.Fatal("max key lost")
	}
}

func bytesOf(c byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return b
}

func TestBTreePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt.storm")
	f, err := createFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := newBufferPool(f, 32, newLRU())
	tr, err := newBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tr.Put(fmt.Sprintf("name-%05d", i), OID{Page: PageID(i + 1), Slot: Slot(i % 9)})
	}
	if err := f.SetMetaRoot(tr.Root()); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := openFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.MetaRoot() == invalidPage {
		t.Fatal("meta root lost")
	}
	pool2 := newBufferPool(g, 32, newLRU())
	tr2 := openBTree(pool2, g.MetaRoot())
	if n, err := tr2.Len(); err != nil || n != 2000 {
		t.Fatalf("reopened len = %d, %v", n, err)
	}
	oid, found, err := tr2.Get("name-01234")
	if err != nil || !found || oid.Page != 1235 {
		t.Fatalf("reopened get = %v %v %v", oid, found, err)
	}
}

func TestBTreeTinyPoolStillWorks(t *testing.T) {
	// Descents pin one page at a time, so even a 3-frame pool suffices.
	tr, _ := newTree(t, 3)
	for i := 0; i < 1500; i++ {
		if err := tr.Put(fmt.Sprintf("z%06d", i), OID{Page: PageID(i + 1)}); err != nil {
			t.Fatalf("put %d under tiny pool: %v", i, err)
		}
	}
	for i := 0; i < 1500; i += 119 {
		if _, found, err := tr.Get(fmt.Sprintf("z%06d", i)); err != nil || !found {
			t.Fatalf("get %d under tiny pool: %v %v", i, found, err)
		}
	}
}

// Property: the tree agrees with a shadow map under random operations.
func TestBTreeShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		file, err := createFile(filepath.Join(t.TempDir(), "q.storm"))
		if err != nil {
			return false
		}
		defer file.Close()
		pool := newBufferPool(file, 16, newLRU())
		tr, err := newBTree(pool)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[string]OID)
		for op := 0; op < 600; op++ {
			key := fmt.Sprintf("k%03d", rng.Intn(150))
			switch rng.Intn(4) {
			case 0, 1: // put
				oid := OID{Page: PageID(rng.Intn(1000) + 1), Slot: Slot(rng.Intn(50))}
				if tr.Put(key, oid) != nil {
					return false
				}
				shadow[key] = oid
			case 2: // delete
				ok, err := tr.Delete(key)
				if err != nil {
					return false
				}
				_, existed := shadow[key]
				if ok != existed {
					return false
				}
				delete(shadow, key)
			case 3: // get
				oid, found, err := tr.Get(key)
				if err != nil {
					return false
				}
				want, existed := shadow[key]
				if found != existed || (found && oid != want) {
					return false
				}
			}
		}
		n, err := tr.Len()
		if err != nil || n != len(shadow) {
			return false
		}
		// Full agreement via Ascend.
		seen := 0
		err = tr.Ascend(func(k string, oid OID) bool {
			want, ok := shadow[k]
			if !ok || want != oid {
				return false
			}
			seen++
			return true
		})
		return err == nil && seen == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeAscendRange(t *testing.T) {
	tr, _ := newTree(t, 16)
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("r%03d", i), OID{Page: PageID(i + 1)})
	}
	var got []string
	if err := tr.AscendRange("r010", "r015", func(k string, _ OID) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"r010", "r011", "r012", "r013", "r014"}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v", got)
		}
	}
	// Open-ended range.
	count := 0
	tr.AscendRange("r095", "", func(string, OID) bool { count++; return true })
	if count != 5 {
		t.Fatalf("open range = %d", count)
	}
	// Early stop.
	count = 0
	tr.AscendRange("", "", func(string, OID) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop = %d", count)
	}
}
