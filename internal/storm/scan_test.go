package storm

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"bestpeer/internal/obs"
)

// scanQueries covers both arms of Matches (keyword equality, name
// substring), case folding in ASCII and beyond it, and the empty query.
var scanQueries = []string{
	"kw3", "KW5", "kw", "obj-01", "OBJ-1", "straße", "STRASSE", "İstanbul", "i̇stanbul",
	"K", "k", "ſ", "s", "fresh", "doomed", "", "nothing-has-this",
}

// scanKeywords is the vocabulary mixStore draws from, non-ASCII included.
var scanKeywords = []string{"kw0", "kw1", "kw2", "kw3", "kw4", "Kw5", "Straße", "İstanbul", "K", "ſ"}

// mixStore fills s with a seeded Put/Replace/Delete mix several times the
// pool and returns the model of what must be in it. Nothing is flushed,
// so the pool ends holding dirty pages newer than the file.
func mixStore(t *testing.T, s *Store, seed int64, ops int) map[string]*Object {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string]*Object)
	for op := 0; op < ops; op++ {
		name := fmt.Sprintf("obj-%03d", rng.Intn(ops/3))
		if rng.Intn(5) == 0 {
			if _, ok := model[name]; ok {
				if err := s.Delete(name); err != nil {
					t.Fatalf("op %d: delete %s: %v", op, name, err)
				}
				delete(model, name)
			}
			continue
		}
		o := obj(name, []string{scanKeywords[rng.Intn(len(scanKeywords))], scanKeywords[rng.Intn(len(scanKeywords))]}, 200+rng.Intn(900))
		if _, err := s.Put(o); err != nil {
			t.Fatalf("op %d: put %s: %v", op, name, err)
		}
		model[name] = o
	}
	return model
}

// checkAgainstModel asserts, for every query, that Match, MatchFunc over
// Matches and the model agree — Match and MatchFunc object for object and
// in the same order.
func checkAgainstModel(t *testing.T, s *Store, model map[string]*Object) {
	t.Helper()
	for _, q := range scanQueries {
		got, err := s.Match(q)
		if err != nil {
			t.Fatalf("Match(%q): %v", q, err)
		}
		ref, err := s.MatchFunc(func(o *Object) bool { return o.Matches(q) })
		if err != nil {
			t.Fatalf("MatchFunc(%q): %v", q, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Match(%q) returned %d objects, MatchFunc(Matches) %d, or they differ in order or content", q, len(got), len(ref))
		}
		var want []string
		for name, o := range model {
			if o.Matches(q) {
				want = append(want, name)
			}
		}
		sort.Strings(want)
		names := make([]string, len(got))
		for i, o := range got {
			names[i] = o.Name
			if !reflect.DeepEqual(o, model[o.Name]) {
				t.Fatalf("Match(%q): %s differs from what was last put", q, o.Name)
			}
		}
		sort.Strings(names)
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("Match(%q) = %v, model says %v", q, names, want)
		}
	}
}

// TestMatchEqualsMatchFuncOverPool: on a store several times its pool,
// with the last writes only in dirty frames, the planned Match answers
// exactly as a decode-everything scan does, and every page either reads
// comes through the pool: a hit, or a miss that reads the file once.
func TestMatchEqualsMatchFuncOverPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(dir string) Options
	}{
		{"plain", func(string) Options { return Options{BufferFrames: 8} }},
		{"wal-catalog-index", func(dir string) Options {
			return Options{BufferFrames: 8, WALPath: filepath.Join(dir, "data.wal"), PersistentCatalog: true, PersistentIndex: true}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(filepath.Join(dir, "data.storm"), tc.opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			model := mixStore(t, s, 7, 1500)
			if pages := s.Stats().DataPages; pages < 5*len(s.pool.frames) {
				t.Fatalf("store has %d data pages, want several times the %d-frame pool", pages, len(s.pool.frames))
			}

			// The last writes live only in dirty frames: a read of their
			// pages from the file would miss them.
			fresh := obj("fresh-object", []string{"fresh"}, 300)
			if _, err := s.Put(fresh); err != nil {
				t.Fatal(err)
			}
			model[fresh.Name] = fresh
			doomed := obj("doomed-object", []string{"doomed"}, 300)
			if _, err := s.Put(doomed); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(doomed.Name); err != nil {
				t.Fatal(err)
			}

			hits, misses, _ := s.pool.Counters()
			reads := s.file.Reads
			checkAgainstModel(t, s, model)
			hits2, misses2, _ := s.pool.Counters()
			if hits2 == hits || misses2 == misses {
				t.Fatalf("scans over a store several times the pool: pool hits %d -> %d, misses %d -> %d; want both to grow", hits, hits2, misses, misses2)
			}
			if got, want := s.file.Reads-reads, misses2-misses; got != want {
				t.Fatalf("scans read %d pages from the file but counted %d pool misses", got, want)
			}
			if got, _ := s.Match("fresh"); len(got) != 1 {
				t.Fatalf("an unflushed Put was not found: %d hits", len(got))
			}
			if got, _ := s.Match("doomed"); len(got) != 0 {
				t.Fatalf("an unflushed Delete was still found: %d hits", len(got))
			}
		})
	}
}

// TestScanStopsAtCorruptPage: a Scan over a page whose checksum fails on
// read fails with errChecksum, after delivering only the objects ahead of
// it.
func TestScanStopsAtCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.storm")
	s, err := Open(path, Options{BufferFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%03d", i), []string{"kw"}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := s.dataPages[len(s.dataPages)/2]
	if resident(s.pool, victim) {
		t.Fatalf("page %d is resident; the test needs it read from the file", victim)
	}
	corruptPageOnDisk(t, path, victim)

	if _, err := s.Match("kw"); !errors.Is(err, errChecksum) {
		t.Fatalf("Match over a corrupt page: %v, want errChecksum", err)
	}
	seen := 0
	err = s.Scan(func(*Object) bool { seen++; return true })
	if !errors.Is(err, errChecksum) {
		t.Fatalf("Scan over a corrupt page: %v, want errChecksum", err)
	}
	ahead := 0
	for _, oid := range s.byName {
		if oid.Page < victim {
			ahead++
		}
	}
	if seen != ahead || seen == 0 {
		t.Fatalf("Scan delivered %d objects; want the %d ahead of the corrupt page", seen, ahead)
	}
}

// corruptPageOnDisk flips a byte inside the record area of the page's image
// in the data file, behind the store's back: the page's CRC no longer holds.
func corruptPageOnDisk(t *testing.T, path string, id PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	off := int64(id)*pageSize + 100
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestScanFailsOnCorruptRecord: a record decodeObject rejects fails every
// Match that names it as a candidate, by keyword or by name, and every
// Scan; a Match with no reason to read it does not fail.
func TestScanFailsOnCorruptRecord(t *testing.T) {
	s := tempStore(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%d", i), []string{"kw"}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	corruptDataLength(t, s, "obj-5", 100)
	for attempt := 1; attempt <= 3; attempt++ {
		for _, q := range []string{"kw", "KW", "obj-5", "obj-"} {
			if _, err := s.Match(q); !errors.Is(err, errBadObject) {
				t.Fatalf("Match(%q) %d, whose candidates hold a corrupt record: %v, want errBadObject", q, attempt, err)
			}
		}
		if got, err := s.Match("obj-4"); err != nil || len(got) != 1 {
			t.Fatalf("Match(obj-4) %d beside a corrupt record = %d objects, %v; want obj-4", attempt, len(got), err)
		}
		if got, err := s.Match("no-such-keyword"); err != nil || len(got) != 0 {
			t.Fatalf("Match %d with no candidate = %d objects, %v; want none", attempt, len(got), err)
		}
		if err := s.Scan(func(*Object) bool { return true }); !errors.Is(err, errBadObject) {
			t.Fatalf("Scan %d over a corrupt record: %v, want errBadObject", attempt, err)
		}
	}
}

// TestMatchVouchesForThePagesItReads: the plan's error contract. A page
// corrupt on disk fails every Match whose candidates lie on it, and every
// Scan; it does not fail a Match whose candidates lie elsewhere, nor the
// empty query, which has none.
func TestMatchVouchesForThePagesItReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.storm")
	s, err := Open(path, Options{BufferFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%03d", i), []string{fmt.Sprintf("kw%d", i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := s.dataPages[len(s.dataPages)/2]
	if resident(s.pool, victim) {
		t.Fatalf("page %d is resident; the test needs it read from the file", victim)
	}
	var onVictim, elsewhere string
	for i := 0; i < 300 && (onVictim == "" || elsewhere == ""); i++ {
		if kw := fmt.Sprintf("kw%d", i); s.byName[fmt.Sprintf("obj-%03d", i)].Page == victim {
			onVictim = kw
		} else {
			elsewhere = kw
		}
	}

	corruptPageOnDisk(t, path, victim)

	for attempt := 1; attempt <= 2; attempt++ {
		if got, err := s.Match(elsewhere); err != nil || len(got) != 1 {
			t.Fatalf("Match(%s) %d, whose candidate is elsewhere = %d objects, %v; want its one object", elsewhere, attempt, len(got), err)
		}
		if _, err := s.Match(onVictim); !errors.Is(err, errChecksum) {
			t.Fatalf("Match(%s) %d, whose candidate page is the corrupt one: %v, want errChecksum", onVictim, attempt, err)
		}
		if got, err := s.Match(""); err != nil || len(got) != 0 {
			t.Fatalf("the empty query %d = %d objects, %v; want none", attempt, len(got), err)
		}
		if err := s.Scan(func(*Object) bool { return true }); !errors.Is(err, errChecksum) {
			t.Fatalf("Scan %d over a corrupt page: %v, want errChecksum", attempt, err)
		}
	}
}

// corruptDataLength damages the stored record of the named object, whose
// data is size (< 128) bytes long, in its pooled page: the data length
// prefix now runs one byte short, which decodeObject rejects.
func corruptDataLength(t *testing.T, s *Store, name string, size int) {
	t.Helper()
	oid := s.byName[name]
	p, err := s.pool.Fetch(oid.Page)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Get(oid.Slot)
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)-size-1] = byte(size - 1)
	if err := s.pool.Unpin(oid.Page, true); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScannersAndWriters runs two writers beside four scanners
// on a store many times its pool, so run reads, pooled reads of dirty
// pages and dirty evictions interleave. The scanners check every answer:
// the stable objects exactly, the churning ones for torn content. Run
// under -race. Match is the plan: twin, names and heap read under one
// lock hold, beside writers moving records (and, on the indexed kinds,
// splitting the tree's leaves).
func TestConcurrentScannersAndWriters(t *testing.T) {
	for _, tc := range planStores {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(filepath.Join(dir, "data.storm"), tc.opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			concurrentScannersAndWriters(t, s)
		})
	}
}

func concurrentScannersAndWriters(t *testing.T, s *Store) {
	var stable []*Object
	for i := 0; i < 150; i++ {
		o := obj(fmt.Sprintf("stable-%03d", i), []string{"stable"}, 400+i)
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
		stable = append(stable, o)
	}

	// A churn object's data is one repeated byte, so a torn or stale read
	// shows as mixed bytes.
	churn := func(name string, version int) *Object {
		data := make([]byte, 100+(version*37)%900)
		for i := range data {
			data[i] = byte(version)
		}
		return &Object{Name: name, Keywords: []string{"churn"}, Data: data}
	}
	uniform := func(o *Object) bool {
		for _, c := range o.Data {
			if c != o.Data[0] {
				return false
			}
		}
		return true
	}

	const writers, scanners, rounds, phases = 2, 4, 400, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	models := make([]map[string]*Object, writers)
	rngs := make([]*rand.Rand, writers)
	for w := range models {
		models[w], rngs[w] = make(map[string]*Object), rand.New(rand.NewSource(int64(w)))
	}
	// write runs one writer's share of a phase.
	write := func(w, from, to int) {
		for i := from; i < to; i++ {
			name := fmt.Sprintf("churn-%d-%02d", w, rngs[w].Intn(40))
			if _, ok := models[w][name]; ok && rngs[w].Intn(3) == 0 {
				if err := s.Delete(name); err != nil {
					t.Errorf("delete %s: %v", name, err)
					return
				}
				delete(models[w], name)
				continue
			}
			o := churn(name, i)
			if _, err := s.Put(o); err != nil {
				t.Errorf("put %s: %v", name, err)
				return
			}
			models[w][name] = o
		}
	}
	for r := 0; r < scanners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var got []*Object
				var err error
				switch (r + i) % 3 {
				case 0:
					got, err = s.Match("STABLE")
				case 1:
					got, err = s.MatchFunc(func(o *Object) bool { return o.Matches("stable") })
				default:
					err = s.Scan(func(o *Object) bool {
						if o.Matches("stable") {
							got = append(got, o)
						} else if !uniform(o) {
							t.Errorf("scanner %d: %s has torn data", r, o.Name)
						}
						return true
					})
				}
				if err != nil {
					t.Errorf("scanner %d: %v", r, err)
					return
				}
				if !reflect.DeepEqual(got, stable) {
					t.Errorf("scanner %d: the stable objects came back changed (%d of %d)", r, len(got), len(stable))
					return
				}
				moving, err := s.Match("churn")
				if err != nil {
					t.Errorf("scanner %d: %v", r, err)
					return
				}
				for _, o := range moving {
					if !uniform(o) {
						t.Errorf("scanner %d: %s has torn data", r, o.Name)
					}
				}
			}
		}(r)
	}
	// The writers run in phases. Between two of them no page changes while
	// the scanners go on, so the plan's twin and names and what it answers
	// can be held to the pages and to the writers' model.
	for phase := 0; phase < phases; phase++ {
		var writing sync.WaitGroup
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(w int) {
				defer writing.Done()
				write(w, phase*rounds/phases, (phase+1)*rounds/phases)
			}(w)
		}
		writing.Wait()
		checkTwinCurrent(t, s)
		checkNamesCurrent(t, s)
		moving, err := s.Match("churn")
		if err != nil {
			t.Fatal(err)
		}
		if walked, err := s.matchKeyless("churn"); err != nil || !reflect.DeepEqual(moving, walked) {
			t.Fatalf("phase %d: Match(churn) = %v, a walk of every page %v, %v", phase, objNames(moving), objNames(walked), err)
		}
		if want := len(models[0]) + len(models[1]); len(moving) != want {
			t.Fatalf("phase %d: Match(churn) = %d objects, the writers' model holds %d", phase, len(moving), want)
		}
		for _, o := range moving {
			if want := models[int(o.Name[len("churn-")]-'0')][o.Name]; !reflect.DeepEqual(o, want) {
				t.Fatalf("phase %d: %s differs from what was last put", phase, o.Name)
			}
		}
	}
	close(stop)
	wg.Wait()

	model := make(map[string]*Object)
	for _, o := range stable {
		model[o.Name] = o
	}
	for _, m := range models {
		for name, o := range m {
			model[name] = o
		}
	}
	all, err := s.MatchFunc(func(*Object) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(model) {
		t.Fatalf("store holds %d objects, model %d", len(all), len(model))
	}
	for _, o := range all {
		if !reflect.DeepEqual(o, model[o.Name]) {
			t.Fatalf("%s differs from what was last put", o.Name)
		}
	}
}

// TestStatsBesideWALAppend: Stats reads the WAL's record count while a
// Put, whose Append runs outside the store lock, bumps it. Run under
// -race.
func TestStatsBesideWALAppend(t *testing.T) {
	s := walStore(t, t.TempDir())
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := s.Put(obj(fmt.Sprintf("obj-%d", i), nil, 64)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if n := s.Stats().WALRecords; n < last {
			t.Fatalf("WALRecords went from %d to %d", last, n)
		} else {
			last = n
		}
	}
	if last != 200 {
		t.Fatalf("WALRecords = %d after 200 puts", last)
	}
}

// TestFreeSpaceFirstFit checks the tournament tree against a linear scan.
func TestFreeSpaceFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tree freeSpace
	var flat []int
	if tree.firstFit(0, 1) != -1 || tree.total() != 0 {
		t.Fatal("an empty tree found room")
	}
	for step := 0; step < 5000; step++ {
		switch {
		case len(flat) == 0 || rng.Intn(20) == 0:
			v := rng.Intn(pageSize)
			tree.append(v)
			flat = append(flat, v)
		default:
			i, v := rng.Intn(len(flat)), rng.Intn(pageSize)
			tree.set(i, v)
			flat[i] = v
		}
		from, need := rng.Intn(len(flat)+1), 1+rng.Intn(pageSize)
		want, sum := -1, 0
		for i, v := range flat {
			sum += v
			if want < 0 && i >= from && v >= need {
				want = i
			}
		}
		if got := tree.firstFit(from, need); got != want {
			t.Fatalf("step %d: firstFit(%d, %d) = %d, linear scan says %d", step, from, need, got, want)
		}
		if got := tree.total(); got != sum {
			t.Fatalf("step %d: total = %d, want %d", step, got, sum)
		}
	}
}

// TestRecordMatchesRandom is the seeded, always-on slice of
// FuzzRecordMatches: random objects and queries over an alphabet with
// multi-byte case pairs and an invalid byte, intact and damaged records.
func TestRecordMatchesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "A", "b", "B", "k", "K", "K", "s", "S", "ſ", "ß", "i", "I", "İ", "ı", "é", "É", "-", "1", "\xff"}
	word := func(max int) string {
		w := ""
		for n := rng.Intn(max + 1); n > 0; n-- {
			w += alphabet[rng.Intn(len(alphabet))]
		}
		return w
	}
	for i := 0; i < 20000; i++ {
		o := &Object{Name: word(8), Kind: ObjectKind(rng.Intn(2)), ActiveClass: word(2), Data: []byte(word(5))}
		for n := rng.Intn(4); n > 0; n-- {
			o.Keywords = append(o.Keywords, word(3))
		}
		rec, err := encodeObject(o)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(10) {
		case 0:
			rec = rec[:rng.Intn(len(rec))]
		case 1:
			rec[rng.Intn(len(rec))] ^= byte(1 << rng.Intn(8))
		case 2:
			rec = append(rec, byte(rng.Intn(256)))
		}
		query := word(3)
		hit, err := recordMatches(rec, strings.ToLower(query))
		back, derr := decodeObject(rec, nil)
		if (err != nil) != (derr != nil) {
			t.Fatalf("record %x: recordMatches error %v, decodeObject error %v", rec, err, derr)
		}
		if derr == nil && hit != back.Matches(query) {
			t.Fatalf("record %x, query %q: recordMatches %v, Matches %v", rec, query, hit, !hit)
		}
		if derr == nil {
			checkRecordKeys(t, back, rec)
		}
	}
}

// TestLowerBytesFoldsFieldwise: lowerBytes, which the plan's names and
// twin fold with, is strings.ToLower — over a NUL-delimited buffer of
// fields, what folding each field on its own gives, also where a field
// ends inside a multi-byte sequence or is not UTF-8 at all.
func TestLowerBytesFoldsFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	alphabet := []string{"a", "Z", "K", "İ", "K", "ſ", "ß", "É", "\xff", "\xc4", "\xe2\x84", "\xe2", "\xb0", "-", ""}
	for i := 0; i < 20000; i++ {
		var joined, fieldwise []byte
		for n := 1 + rng.Intn(5); n > 0; n-- {
			field := ""
			for m := rng.Intn(4); m > 0; m-- {
				field += alphabet[rng.Intn(len(alphabet))]
			}
			joined = append(append(joined, field...), 0)
			fieldwise = append(append(fieldwise, strings.ToLower(field)...), 0)
		}
		if got := lowerBytes(joined); string(got) != string(fieldwise) {
			t.Fatalf("folded together %q, field by field %q", got, fieldwise)
		}
	}
}

// TestStoreCountersDelta: what the store counts is published as counters,
// so a scraper's Snapshot.DeltaSince reads increases — pages a Scan or a
// Match fetches through the pool, log records — where it used to be handed
// the running totals as if they were levels.
func TestStoreCountersDelta(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "data.storm"), Options{BufferFrames: 8, WALPath: filepath.Join(dir, "data.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterMetrics(reg)
	for i := 0; i < 90; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%02d", i), []string{fmt.Sprintf("kw%d", i%30)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	pages := float64(s.Stats().DataPages)
	delta := func(op func()) *obs.Snapshot {
		before := reg.Snapshot()
		op()
		return reg.Snapshot().DeltaSince(before)
	}
	fetched := func(d *obs.Snapshot) float64 {
		return d.Value("bestpeer_storm_pool_hits") + d.Value("bestpeer_storm_pool_misses")
	}
	for i := 1; i <= 2; i++ {
		d := delta(func() {
			if got, err := s.Match("kw7"); err != nil || len(got) != 3 {
				t.Fatalf("Match(kw7) = %d objects, %v; want 3", len(got), err)
			}
		})
		// The plan fetches the 1-3 pages of its hits, and no others.
		if n := fetched(d); n < 1 || n > 3 {
			t.Errorf("Match %d: %v pages fetched; want the 1-3 pages of its hits", i, n)
		}
		if n := d.Value("bestpeer_storm_wal_records"); n != 0 {
			t.Errorf("a Match logged %v records", n)
		}
		if n := d.Value("bestpeer_storm_objects"); n != 90 {
			t.Errorf("objects = %v in a delta; a gauge passes through as a level", n)
		}
	}
	scan := delta(func() {
		if err := s.Scan(func(*Object) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	if n := fetched(scan); n != pages {
		t.Errorf("Scan fetched %v pages of %v", n, pages)
	}
	if n := reg.Snapshot().Value("bestpeer_storm_wal_records"); n != 90 {
		t.Errorf("wal_records = %v after 90 puts", n)
	}
	for _, name := range []string{"bestpeer_storm_pool_hits", "bestpeer_storm_pool_misses", "bestpeer_storm_pool_evictions", "bestpeer_storm_wal_records"} {
		if f := scan.Family(name); f == nil || f.Type != "counter" {
			t.Errorf("%s is published as %+v, want a counter", name, f)
		}
	}
}
