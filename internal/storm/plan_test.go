package storm

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// planStores are the store kinds Match is held equal over: the walker
// alone, the plan, and the plan beside WAL recovery.
var planStores = []struct {
	name    string
	durable bool // a WAL: the model survives Abandon
	opts    func(dir string) Options
}{
	{"plain", false, func(string) Options { return Options{BufferFrames: 8} }},
	{"catalog-index", false, func(string) Options {
		return Options{BufferFrames: 8, PersistentCatalog: true, PersistentIndex: true}
	}},
	{"wal-catalog-index", true, func(dir string) Options {
		return Options{BufferFrames: 8, PersistentCatalog: true, PersistentIndex: true, WALPath: filepath.Join(dir, "data.wal")}
	}},
}

// The vocabulary of the differential tests: keywords that are prefixes of
// one another across a NUL, case pairs whose folding changes byte length
// or leaves ASCII (U+0130, long s, the Kelvin sign), names that contain
// keywords, and queries in other cases than what was stored.
var (
	planNames    = []string{"alpha", "Alpha-2", "beta", "İstanbul", "ſtraße", "kelvin-\u212a", "kw-in-name", "a", "x\x00y", "b-side"}
	planKeywords = []string{"kw", "KW", "a", "a\x00b", "b", "İ", "ſ", "\u212a", "k", "S", "alpha", "x"}
	planQueries  = []string{"kw", "Kw", "a", "A", "a\x00b", "a\x00", "b", "İ", "i̇", "ſ", "s", "\u212a", "K", "k", "alpha", "ALPHA", "stra", "x", "x\x00", "-", "", "absent"}
)

// matchKeyless is the walker without its memory — every page read, every
// record put to recordMatches — which is what matchWalked was before the
// walker remembered anything: the reference the keyed walk is held to.
func (s *Store) matchKeyless(q string) ([]*Object, error) {
	var out []*Object
	err := s.walk(nil, func(rec []byte) error {
		hit, err := recordMatches(rec, q, nil)
		if err != nil || !hit {
			return err
		}
		obj, err := decodeObject(rec)
		if err == nil {
			out = append(out, obj)
		}
		return err
	}, nil)
	return out, err
}

// forgetKeys drops everything the walker remembers, as a reopen does.
func (s *Store) forgetKeys() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.keys {
		s.keys[i].Store(nil)
	}
}

// remembered counts the pages the walker holds keys of.
func (s *Store) remembered() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i := range s.keys {
		if s.keys[i].Load() != nil {
			n++
		}
	}
	return n
}

// checkKeysCurrent is the invariant every skip rests on: whatever the
// walker remembers of a page is what gathering the page's records afresh
// gives. A mutation that changed a page and left its keys behind fails
// here, whether or not a query happens to notice. The three slices that
// describe the heap stay parallel.
func checkKeysCurrent(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.keys) != len(s.dataPages) || s.free.n != len(s.dataPages) {
		t.Fatalf("%d data pages, %d key slots, %d free-space leaves", len(s.dataPages), len(s.keys), s.free.n)
	}
	for i, id := range s.dataPages {
		k := s.keys[i].Load()
		if k == nil {
			continue
		}
		p, err := s.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		var fresh keyBuf
		fresh.reset()
		p.Records(func(_ Slot, rec []byte) bool {
			if _, err := recordMatches(rec, "", &fresh); err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			return true
		})
		if want := fresh.keys(); want == nil || *k != *want {
			t.Fatalf("page %d: the walker remembers %q, the page holds %q", id, k, want)
		}
		if err := s.pool.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
}

// checkNamesCurrent is what the plan's name arm rests on: every name the
// catalog holds is listed, the buffer is the listed names folded and
// NUL-terminated one after the other, each start offset is where its name
// begins, and stale entries are bounded — at most 2 × live + 64 in all.
// A store without the index, which never plans, lists nothing.
func checkNamesCurrent(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := &s.names
	if s.pindex == nil {
		if len(l.names)+len(l.starts)+len(l.folded) != 0 {
			t.Fatalf("a store without the index lists %d names", len(l.names))
		}
		return
	}
	listed := make(map[string]bool, len(l.names))
	var want []byte
	if len(l.starts) != len(l.names) {
		t.Fatalf("%d start offsets for %d names", len(l.starts), len(l.names))
	}
	for i, name := range l.names {
		if l.starts[i] != len(want) {
			t.Fatalf("name %d (%q) starts at %d, the names before it end at %d", i, name, l.starts[i], len(want))
		}
		want = append(append(want, strings.ToLower(name)...), 0)
		listed[name] = true
	}
	if string(l.folded) != string(want) {
		t.Fatalf("the buffer holds %q, the listed names fold to %q", l.folded, want)
	}
	for name := range s.byName {
		if !listed[name] {
			t.Fatalf("%q is stored and not listed", name)
		}
	}
	if len(l.names) > 2*len(s.byName)+64 {
		t.Fatalf("%d names listed for %d stored", len(l.names), len(s.byName))
	}
}

// checkPlan holds the ways to answer a query equal on s — the same objects
// in the same order: Match (the plan, where an index is open), the page
// walker with whatever it remembers at this point (nothing after a reopen,
// everything but the pages the last step changed after a write, everything
// from the second query on), the walker with no memory, and a
// decode-everything scan through Object.Matches.
func checkPlan(t *testing.T, s *Store, queries []string) {
	t.Helper()
	for _, q := range queries {
		got, err := s.Match(q)
		if err != nil {
			t.Fatalf("Match(%q): %v", q, err)
		}
		walked, err := s.matchWalked(strings.ToLower(q))
		if err != nil {
			t.Fatalf("walker(%q): %v", q, err)
		}
		keyless, err := s.matchKeyless(strings.ToLower(q))
		if err != nil {
			t.Fatalf("key-less walker(%q): %v", q, err)
		}
		ref, err := s.MatchFunc(func(o *Object) bool { return o.Matches(q) })
		if err != nil {
			t.Fatalf("MatchFunc(%q): %v", q, err)
		}
		if !reflect.DeepEqual(got, walked) {
			t.Fatalf("Match(%q) = %v, the walker says %v", q, objNames(got), objNames(walked))
		}
		if !reflect.DeepEqual(walked, keyless) {
			t.Fatalf("walker(%q) = %v, without its memory it says %v", q, objNames(walked), objNames(keyless))
		}
		if !reflect.DeepEqual(keyless, ref) {
			t.Fatalf("key-less walker(%q) = %v, MatchFunc(Matches) says %v", q, objNames(keyless), objNames(ref))
		}
		checkNameArm(t, s, strings.ToLower(q))
	}
}

// checkNameArm: the plan's name arm offers the listed names that contain
// q, folded, and no other — not one a hit across the join of two names or
// into the NUL that ends a name would give. recordMatches would refuse
// those; this holds the arm to not needing it.
func checkNameArm(t *testing.T, s *Store, q string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	offered := make(map[string]bool)
	s.names.match(q, func(name string) { offered[name] = true })
	for _, name := range s.names.names {
		if strings.Contains(strings.ToLower(name), q) != offered[name] {
			t.Fatalf("the name arm offers %q for %q: %v", name, q, offered[name])
		}
	}
}

func objNames(objs []*Object) []string {
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	return names
}

// runMatchPlan interprets prog as a sequence of Put / Replace-in-place /
// Replace-that-moves / Delete / Checkpoint / close-reopen / Abandon-recover
// steps on a store of the given kind, and after every step holds what the
// walker remembers to checkKeysCurrent, the plan's folded names to
// checkNamesCurrent, Match to checkPlan and the store's content to a model
// of what was put. The queries start one further on at each step, so each
// of them is at some point the first after a write — the one that meets
// the keys partly dropped.
func runMatchPlan(t *testing.T, kind uint8, prog []byte) {
	tc := planStores[int(kind)%len(planStores)]
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(filepath.Join(dir, "data.storm"), tc.opts(dir))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()
	model := make(map[string]*Object)
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	put := func(name string, size int) {
		o := obj(name, []string{planKeywords[next()%len(planKeywords)], planKeywords[next()%len(planKeywords)]}, size)
		if _, err := s.Put(o); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
		model[name] = o
	}
	for step := 0; len(prog) > 0 && step < 64; step++ {
		op, name := next()%8, planNames[next()%len(planNames)]
		switch old := model[name]; {
		case op <= 1 || old == nil && op <= 3:
			put(name, 40+next()*6)
		case op == 2: // fits where the old record lies
			put(name, len(old.Data)/2)
		case op == 3: // outgrows its page once the page has neighbours
			put(name, 3000)
		case op == 4:
			if err := s.Delete(name); (err == nil) != (old != nil) || err != nil && !errors.Is(err, errNotFound) {
				t.Fatalf("delete %q (stored: %v): %v", name, old != nil, err)
			}
			delete(model, name)
		case op == 5:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		case op == 6:
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			s = open()
		case op == 7:
			s.Abandon()
			s = open()
			if !tc.durable {
				// Without a log the store is whatever pages reached the
				// file; only its agreement with itself is owed.
				all, err := s.MatchFunc(func(*Object) bool { return true })
				if err != nil {
					t.Fatalf("scan after recovery: %v", err)
				}
				clear(model)
				for _, o := range all {
					model[o.Name] = o
				}
			}
		}
		checkKeysCurrent(t, s)
		checkNamesCurrent(t, s)
		at := step % len(planQueries)
		checkPlan(t, s, append(planQueries[at:len(planQueries):len(planQueries)], planQueries[:at]...))
		if s.Stats().DataPages > 0 && s.remembered() == 0 {
			t.Fatalf("step %d: %d queries left nothing remembered", step, len(planQueries))
		}
		all, err := s.MatchFunc(func(*Object) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(model) {
			t.Fatalf("step %d (op %d on %q): store holds %v, model %d objects", step, op, name, objNames(all), len(model))
		}
		for _, o := range all {
			if !reflect.DeepEqual(o, model[o.Name]) {
				t.Fatalf("step %d (op %d on %q): %q differs from what was last put", step, op, name, o.Name)
			}
		}
	}
}

// FuzzMatchPlan is the differential proof the query plan and the walker's
// memory rest on: over arbitrary mutation, checkpoint, reopen and crash
// sequences on every store kind, the planned Match equals the walker —
// keys warm, partly dropped or cold — equals the walker without keys equals
// MatchFunc(Matches).
func FuzzMatchPlan(f *testing.F) {
	for kind := range planStores {
		kind := uint8(kind)
		f.Add(kind, []byte{0, 0, 9, 0, 1, 0, 1, 9, 2, 3, 4, 0, 6, 0, 3, 1, 7, 0, 2, 0, 5, 6})
		f.Add(kind, []byte("\x00\x03\x40\x05\x06\x00\x04\xc8\x03\x05\x00\x05\x10\x07\x08\x03\x04\x01\x02\x07\x00\x04\x03\x06\x00\x00\x08\xff\x02\x03"))
		f.Add(kind, []byte{1, 8, 200, 3, 2, 1, 6, 200, 0, 1, 1, 7, 200, 4, 5, 3, 8, 2, 2, 7, 3, 0, 4, 6, 7, 0, 4, 8, 6, 0})
	}
	f.Fuzz(runMatchPlan)
}

// TestMatchPlanRandom is the seeded, always-on slice of FuzzMatchPlan.
func TestMatchPlanRandom(t *testing.T) {
	for kind, tc := range planStores {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(16 + kind)))
			for run := 0; run < 8; run++ {
				prog := make([]byte, 240)
				rng.Read(prog)
				runMatchPlan(t, uint8(kind), prog)
			}
		})
	}
}

// TestNamesUnderChurn runs a writer like publish-mix's — Put a fresh name,
// Delete the one put a fixed lag earlier — for 2000 rounds on the indexed
// store kinds, through a close/reopen and an Abandon-recover. runMatchPlan's
// 64 steps never list enough stale names to rebuild; here the list is held
// to checkNamesCurrent after every round, must have been rebuilt, and the
// plan is held to the walker every 100 rounds.
func TestNamesUnderChurn(t *testing.T) {
	const rounds, lag = 2000, 40
	name := func(round int) string { return fmt.Sprintf("%s-%04d", []string{"Pub", "PÜB"}[round%2], round) }
	queries := []string{"pub-00", "püb-01", "PUB-1", "-19", "kw3", "absent"}
	for _, tc := range planStores[1:] {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Store {
				s, err := Open(filepath.Join(dir, "data.storm"), tc.opts(dir))
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return s
			}
			s := open()
			defer func() { s.Close() }()
			rebuilds := 0
			for round := 0; round < rounds; round++ {
				listed := len(s.names.names)
				if _, err := s.Put(obj(name(round), []string{fmt.Sprintf("kw%d", round%7)}, 64)); err != nil {
					t.Fatalf("put: %v", err)
				}
				if round >= lag {
					// Without a log, Abandon may have taken the name with it.
					if err := s.Delete(name(round - lag)); err != nil && (tc.durable || !errors.Is(err, errNotFound)) {
						t.Fatalf("delete: %v", err)
					}
				}
				if len(s.names.names) != listed+1 {
					rebuilds++
				}
				switch round {
				case rounds / 3:
					if err := s.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					s = open()
				case 2 * rounds / 3:
					s.Abandon()
					s = open()
				}
				checkNamesCurrent(t, s)
				if round%100 == 0 || round == rounds-1 {
					checkPlan(t, s, queries)
				}
			}
			if rebuilds == 0 {
				t.Fatalf("%d rounds with %d live names never rebuilt the list", rounds, lag)
			}
		})
	}
}

// TestMatchPlanCases pins the plan's answer, not only its agreement with
// the walker, on the inputs where the two arms and the folding could part:
// names whose folded form is shorter (İ, the Kelvin sign) or longer (Ⱥ, Ⱦ)
// than the name, ahead of names that must still be found; a NUL inside a
// name and inside the query; a query that exists only across the join of
// two names stored one after the other; and, after the table, a name
// deleted and put again and a name replaced so that it moves.
func TestMatchPlanCases(t *testing.T) {
	s := tempStore(t, Options{PersistentIndex: true})
	for _, o := range []*Object{
		obj("n1", []string{"a\x00b"}, 100),
		obj("b\x00n2", []string{"a"}, 100), // its posting key is n1's but for the last byte
		obj("n3", []string{"İ"}, 100),
		obj("n4", []string{"ſ"}, 100),
		obj("n5", []string{"\u212a"}, 100), // the Kelvin sign
		obj("İſ\u212a-6", nil, 100),
		obj("ȺȾ-12", nil, 100), // folds to three bytes a letter
		obj("Needle-7", nil, 100),
		obj("blues-8", []string{"Blues"}, 100),
		obj("m9", []string{"mates"}, 100),
		obj("m10", []string{"MATES"}, 100),
		obj("m11", []string{"mates", "Mates"}, 100),
		obj("nul\x00zone-13", nil, 100),
		obj("xy", nil, 100),
		obj("zw", nil, 100), // put right after xy
	} {
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	if pages := s.Stats().DataPages; pages != 1 {
		t.Fatalf("the cases share %d pages, want 1", pages)
	}
	var queries []string
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{"a", []string{"b\x00n2"}},          // n1's posting is in the range and fails the re-check
		{"a\x00b", []string{"n1"}},          // a keyword containing NUL
		{"a\x00", nil},                      // the bare posting prefix is nobody's keyword
		{"b\x00", []string{"b\x00n2"}},      // ... but may be part of a name
		{"İ", []string{"n3", "İſ\u212a-6"}}, // Go folds U+0130 to a plain i
		{"I", []string{"n3", "İſ\u212a-6"}},
		{"i̇", nil}, // so i + combining dot is not its lower case
		{"ſ", []string{"n4", "İſ\u212a-6"}},
		{"S", []string{"blues-8"}}, // s is not long s: no keyword, one name
		{"\u212a", []string{"n5", "İſ\u212a-6"}},
		{"K", []string{"n5", "İſ\u212a-6"}},
		{"k", []string{"n5", "İſ\u212a-6"}},
		{"", nil},
		{"NEEDLE", []string{"Needle-7"}}, // name only
		{"dle-7", []string{"Needle-7"}},
		{"bLuEs", []string{"blues-8"}}, // both arms, answered once
		{"mAtEs", []string{"m9", "m10", "m11"}},
		{"m1", []string{"m10", "m11"}},
		{"absent", nil},
		{"ⱥⱦ", []string{"ȺȾ-12"}},
		{"Ⱦ-1", []string{"ȺȾ-12"}},
		{"\x00", []string{"b\x00n2", "nul\x00zone-13"}}, // never the end of a name
		{"L\x00Z", []string{"nul\x00zone-13"}},
		{"y", []string{"xy"}}, // the last byte of a name
		{"xy", []string{"xy"}},
		{"yz", nil}, // xy and zw, but no one name
		{"y\x00z", nil},
		{"zw", []string{"zw"}},
	} {
		got, err := s.Match(tc.query)
		if err != nil {
			t.Fatalf("Match(%q): %v", tc.query, err)
		}
		// Every object is on the one page, so slot order is answer order.
		want := append([]string(nil), tc.want...)
		sort.Slice(want, func(i, j int) bool { return s.byName[want[i]].Slot < s.byName[want[j]].Slot })
		names := objNames(got)
		if fmt.Sprintf("%q", names) != fmt.Sprintf("%q", want) {
			t.Errorf("Match(%q) = %q, want %q", tc.query, names, want)
		}
		queries = append(queries, tc.query)
	}
	checkPlan(t, s, queries)

	// Deleted and put again; replaced by a record its page cannot hold;
	// deleted for good.
	if err := s.Delete("Needle-7"); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Object{obj("Needle-7", nil, 100), obj("m9", []string{"mates"}, 3000)} {
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("zw"); err != nil {
		t.Fatal(err)
	}
	if moved := s.byName["m9"]; moved.Page == s.byName["m10"].Page {
		t.Fatalf("m9 stayed on page %d", moved.Page)
	}
	for query, want := range map[string][]string{
		"needle": {"Needle-7"},
		"m9":     {"m9"},
		"zw":     nil,
		"mAtEs":  {"m10", "m11", "m9"}, // m9 now on the later page
	} {
		got, err := s.Match(query)
		if err != nil {
			t.Fatalf("Match(%q): %v", query, err)
		}
		if names := objNames(got); fmt.Sprintf("%q", names) != fmt.Sprintf("%q", want) {
			t.Errorf("Match(%q) = %q, want %q", query, names, want)
		}
	}
	checkPlan(t, s, queries)
}

// TestMatchPlanSkipsStalePostings: a posting is a hint. One that points at
// an empty slot, at a slot past the directory, at a record that does not
// carry the keyword or at a page that is not a heap page is skipped.
func TestMatchPlanSkipsStalePostings(t *testing.T) {
	s := tempStore(t, Options{PersistentIndex: true})
	for i := 0; i < 3; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%d", i), []string{"real"}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	live, gone := s.byName["obj-1"], s.byName["obj-2"]
	if err := s.Delete("obj-2"); err != nil {
		t.Fatal(err)
	}
	for name, oid := range map[string]OID{
		"deleted":  gone,
		"past-end": {Page: live.Page, Slot: 900},
		"other":    live,
		"tree":     {Page: s.pindex.tree.Root(), Slot: 0},
	} {
		if err := s.pindex.tree.Put(postingKey("ghost", name), oid); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.Match("ghost"); err != nil || len(got) != 0 {
		t.Fatalf("Match over stale postings = %v, %v; want nothing", objNames(got), err)
	}
	if got, err := s.Match("real"); err != nil || len(got) != 2 {
		t.Fatalf("Match(real) = %v, %v; want the two live objects", objNames(got), err)
	}
}

// TestMatchPlanReportsCorruptCandidate: the plan fails on a corrupt record
// it reads, and — unlike the walker — not on one it has no reason to read.
func TestMatchPlanReportsCorruptCandidate(t *testing.T) {
	s := tempStore(t, Options{PersistentIndex: true})
	for i := 0; i < 10; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%d", i), []string{fmt.Sprintf("kw%d", i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	corruptDataLength(t, s, "obj-5", 100)
	if _, err := s.Match("kw5"); !errors.Is(err, errBadObject) {
		t.Fatalf("Match of a corrupt candidate: %v, want errBadObject", err)
	}
	if got, err := s.Match("kw4"); err != nil || len(got) != 1 {
		t.Fatalf("Match beside a corrupt record = %v, %v; want obj-4", objNames(got), err)
	}
	if _, err := s.matchWalked("kw4"); !errors.Is(err, errBadObject) {
		t.Fatalf("the walker over a corrupt record: %v, want errBadObject", err)
	}
}

// TestUncleanIndexIsRebuilt: a store with an index and no WAL that dies
// between checkpoints reopens with tree pages older than its heap pages.
// The image still walks cleanly; the header's dirty mark is what gets it
// rebuilt, so the plan cannot miss an object the heap holds.
func TestUncleanIndexIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(filepath.Join(dir, "data.storm"), Options{BufferFrames: 4, PersistentCatalog: true, PersistentIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i := 0; i < 60; i++ {
		if _, err := s.Put(obj(fmt.Sprintf("obj-%03d", i), []string{fmt.Sprintf("kw%d", i%5)}, 900)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	if s.file.isDirty() {
		t.Fatal("a cleanly closed file reopened dirty")
	}
	// Enough traffic through a 4-frame pool that heap pages are evicted to
	// the file while the tree pages last touched stay behind in memory.
	for i := 0; i < 60; i += 2 {
		if err := s.Delete(fmt.Sprintf("obj-%03d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(obj(fmt.Sprintf("new-%03d", i), []string{"fresh", fmt.Sprintf("kw%d", i%5)}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.file.isDirty() {
		t.Fatal("mutations did not mark the file dirty")
	}
	s.Abandon()

	s = open()
	defer s.Close()
	queries := []string{"fresh", "kw0", "kw1", "kw2", "kw3", "kw4", "obj-", "new-", "obj-01"}
	checkPlan(t, s, queries)
	// The index holds exactly the heap's postings, and the catalog its names.
	want := 0
	if err := s.Scan(func(o *Object) bool {
		want += len(o.Keywords)
		if oid, ok := s.byName[o.Name]; !ok {
			t.Errorf("%s is in the heap and not in the catalog", o.Name)
		} else if got, err := s.GetOID(oid); err != nil || got.Name != o.Name {
			t.Errorf("catalog entry of %s leads to %v, %v", o.Name, got, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.pindex.Postings(); err != nil || got != want {
		t.Fatalf("index holds %d postings, %v; the heap has %d", got, err, want)
	}
	if fresh, _ := s.Match("fresh"); len(fresh) == 0 {
		t.Fatal("nothing written after the checkpoint reached the file; the test exercised no recovery")
	}
}

// TestSessionWithoutIndexForgetsIt: a session opened without the index
// option does not maintain the tree, so it may not leave the header naming
// it — the next indexed session would plan from postings of an older heap.
func TestSessionWithoutIndexForgetsIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.storm")
	session := func(opts Options, fn func(*Store)) {
		s, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		fn(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	both := Options{PersistentCatalog: true, PersistentIndex: true}
	session(both, func(s *Store) {
		for i := 0; i < 20; i++ {
			if _, err := s.Put(obj(fmt.Sprintf("obj-%02d", i), []string{"early"}, 300)); err != nil {
				t.Fatal(err)
			}
		}
	})
	session(Options{}, func(s *Store) {
		if _, err := s.Put(obj("latecomer", []string{"late"}, 300)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("obj-07"); err != nil {
			t.Fatal(err)
		}
	})
	session(both, func(s *Store) {
		checkPlan(t, s, []string{"early", "late", "obj-07", "latecomer"})
		if got, _ := s.Match("late"); len(got) != 1 {
			t.Fatalf("Match(late) = %v after a session without the index", objNames(got))
		}
		if got, _ := s.Match("early"); len(got) != 19 {
			t.Fatalf("Match(early) = %d objects, want 19", len(got))
		}
		if names, _ := s.LookupKeyword("late"); len(names) != 1 {
			t.Fatalf("LookupKeyword(late) = %v", names)
		}
	})
}

// TestPutRefusesPostingThatCannotBeIndexed: an object one of whose posting
// keys exceeds a tree key is refused before anything is written — not left
// in the heap with postings missing, where the walker would find it and
// the plan would not.
func TestPutRefusesPostingThatCannotBeIndexed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "data.storm"), Options{PersistentIndex: true, WALPath: filepath.Join(dir, "data.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	long := strings.Repeat("k", maxKeyLen)
	if _, err := s.Put(obj("too-long", []string{"fits", long}, 100)); !errors.Is(err, errKeyTooLong) {
		t.Fatalf("Put with a %d-byte keyword: %v, want errKeyTooLong", len(long), err)
	}
	if s.Has("too-long") || s.Stats().WALRecords != 0 {
		t.Fatalf("the refused object left traces: stored %v, %d WAL records", s.Has("too-long"), s.Stats().WALRecords)
	}
	checkPlan(t, s, []string{"fits", long, "too-long"})
}

// TestLookupKeywordBesideWriters: the index tree has no lock of its own,
// so a lookup must hold the store's against a Put splitting the leaf it
// reads. Run under -race.
func TestLookupKeywordBesideWriters(t *testing.T) {
	s := tempStore(t, Options{PersistentIndex: true})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 600; i++ {
			if _, err := s.Put(obj(fmt.Sprintf("obj-%03d", i), []string{"shared", fmt.Sprintf("kw%d", i%7)}, 64)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if i%3 == 0 {
				if err := s.Delete(fmt.Sprintf("obj-%03d", i)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				names, err := s.LookupKeyword("shared")
				if err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				for _, name := range names {
					if !strings.HasPrefix(name, "obj-") {
						t.Errorf("lookup returned %q", name)
						return
					}
				}
				if n, err := s.pindex.Postings(); err != nil || n < 0 {
					t.Errorf("postings: %d, %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if names, err := s.LookupKeyword("shared"); err != nil || len(names) != 400 {
		t.Fatalf("LookupKeyword(shared) = %d names, %v; want 400", len(names), err)
	}
}
