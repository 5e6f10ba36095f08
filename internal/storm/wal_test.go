package storm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// walStore opens a store with a WAL in dir. "Crashing" it means
// simply abandoning it without Close: dirty pages are lost, the log
// survives.
func walStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(filepath.Join(dir, "w.storm"), Options{
		WALPath: filepath.Join(dir, "w.wal"),
		WALSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWALRecoversUnflushedPuts(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	for i := 0; i < 40; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("o%02d", i), []string{"k"}, 900)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: close only the file descriptors, skipping FlushAll, so dirty
	// buffer-pool pages never reach disk.
	s.wal.Close()
	s.file.Close()

	r := walStore(t, dir)
	defer r.Close()
	if r.Len() != 40 {
		t.Fatalf("recovered Len = %d, want 40", r.Len())
	}
	got, err := r.Get("o31")
	if err != nil || len(got.Data) != 900 {
		t.Fatalf("recovered object: %v %v", got, err)
	}
}

func TestWALRecoversDeletes(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	for i := 0; i < 10; i++ {
		s.Put(obj(fmt.Sprintf("d%d", i), nil, 64))
	}
	if err := s.Checkpoint(); err != nil { // puts now durable in pages
		t.Fatal(err)
	}
	for i := 0; i < 10; i += 2 {
		if err := s.Delete(fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Put(obj("after", nil, 64))
	// Crash.
	s.wal.Close()
	s.file.Close()

	r := walStore(t, dir)
	defer r.Close()
	if r.Len() != 6 { // 5 survivors + "after"
		t.Fatalf("recovered Len = %d, want 6", r.Len())
	}
	if r.Has("d4") || !r.Has("d5") || !r.Has("after") {
		t.Fatalf("recovered contents wrong: %v", r.Names())
	}
}

func TestWALReplaceSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	s.Put(obj("x", []string{"old"}, 100))
	s.Put(obj("x", []string{"new"}, 2000))
	s.wal.Close()
	s.file.Close()

	r := walStore(t, dir)
	defer r.Close()
	got, err := r.Get("x")
	if err != nil || len(got.Data) != 2000 || got.Keywords[0] != "new" {
		t.Fatalf("recovered replacement: %+v %v", got, err)
	}
	if r.Len() != 1 {
		t.Fatalf("replacement duplicated: %d", r.Len())
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	s.Put(obj("good", nil, 64))
	s.wal.Close()
	s.file.Close()

	// Append garbage to the log: a torn record from a crash mid-write.
	f, err := os.OpenFile(filepath.Join(dir, "w.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}) // length says 256, body truncated
	f.Close()

	r := walStore(t, dir)
	defer r.Close()
	if !r.Has("good") || r.Len() != 1 {
		t.Fatalf("torn tail corrupted recovery: %v", r.Names())
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	s.Put(obj("first", nil, 64))
	s.Put(obj("second", nil, 64))
	sz, err := walSize(s.wal)
	if err != nil || sz == 0 {
		t.Fatalf("wal size: %d %v", sz, err)
	}
	s.wal.Close()
	s.file.Close()

	// Flip a byte inside the second record's payload.
	path := filepath.Join(dir, "w.wal")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0xFF
	os.WriteFile(path, raw, 0o644)

	r := walStore(t, dir)
	defer r.Close()
	// First record replays; the corrupted one is treated as torn tail.
	if !r.Has("first") {
		t.Fatal("first record lost")
	}
	if r.Has("second") {
		t.Fatal("corrupt record applied")
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(obj(fmt.Sprintf("c%d", i), nil, 128))
	}
	before, _ := walSize(s.wal)
	if before == 0 {
		t.Fatal("log empty before checkpoint")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := walSize(s.wal)
	if after != 0 {
		t.Fatalf("log not truncated: %d bytes", after)
	}
	// Store still fully usable.
	if _, err := s.Put(obj("post", nil, 64)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 21 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestWALCleanCloseLeavesEmptyLog(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	s.Put(obj("z", nil, 64))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "w.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("log not empty after clean close: %d bytes", st.Size())
	}
	// Reopen sees everything.
	r := walStore(t, dir)
	defer r.Close()
	if !r.Has("z") {
		t.Fatal("object lost across clean close")
	}
}

func TestWALWithPersistentCatalog(t *testing.T) {
	// Both extensions together: WAL replay must keep the catalog in sync.
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(filepath.Join(dir, "wc.storm"), Options{
			WALPath:           filepath.Join(dir, "wc.wal"),
			WALSync:           true,
			PersistentCatalog: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i := 0; i < 30; i++ {
		s.Put(obj(fmt.Sprintf("b%02d", i), nil, 500))
	}
	s.Delete("b07")
	// Crash.
	s.wal.Close()
	s.file.Close()

	r := open()
	defer r.Close()
	if r.Len() != 29 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Has("b07") || !r.Has("b29") {
		t.Fatalf("contents wrong after combined recovery")
	}
	// Catalog agrees with the map.
	if r.catalog != nil {
		n, err := r.catalog.Len()
		if err != nil || n != 29 {
			t.Fatalf("catalog entries = %d, %v", n, err)
		}
	}
}

func TestWALDeleteMissingNotLogged(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t, dir)
	defer s.Close()
	if err := s.Delete("ghost"); err == nil {
		t.Fatal("delete of missing succeeded")
	}
	if s.wal.Appended.Load() != 0 {
		t.Fatalf("missing delete was logged (%d records)", s.wal.Appended.Load())
	}
}

// Property: for any sequence of acknowledged operations interleaved with
// crashes, recovery restores exactly the shadow state — acknowledged
// writes are never lost and phantom objects never appear.
func TestWALCrashRecoveryShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		dir := t.TempDir()
		openStore := func() *Store {
			s, err := Open(filepath.Join(dir, "c.storm"), Options{
				BufferFrames: 4, // tiny pool: maximal dirty-page exposure
				WALPath:      filepath.Join(dir, "c.wal"),
				WALSync:      true,
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return s
		}
		s := openStore()
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[string]int) // name -> data size
		for step := 0; step < 160; step++ {
			switch rng.Intn(10) {
			case 0: // crash and recover
				s.Abandon()
				s = openStore()
				if s.Len() != len(shadow) {
					t.Logf("seed %d step %d: recovered %d, want %d", seed, step, s.Len(), len(shadow))
					return false
				}
			case 1, 2: // delete
				name := fmt.Sprintf("o%02d", rng.Intn(30))
				err := s.Delete(name)
				_, existed := shadow[name]
				if existed != (err == nil) {
					return false
				}
				delete(shadow, name)
			default: // put
				name := fmt.Sprintf("o%02d", rng.Intn(30))
				size := 50 + rng.Intn(1500)
				if _, err := s.Put(obj(name, []string{"k"}, size)); err != nil {
					return false
				}
				shadow[name] = size
			}
		}
		// Final crash + verify everything.
		s.Abandon()
		s = openStore()
		defer s.Close()
		if s.Len() != len(shadow) {
			return false
		}
		for name, size := range shadow {
			got, err := s.Get(name)
			if err != nil || len(got.Data) != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// walSize returns the log's length in bytes after flushing its buffer.
func walSize(w *wal) (int64, error) {
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
