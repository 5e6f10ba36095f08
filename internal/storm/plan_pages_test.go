package storm_test

// What a planned Match reads, counted in pages on the paper's per-node
// store. An external test package: workload imports storm.

import (
	"path/filepath"
	"strings"
	"testing"

	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/workload"
)

// TestPlanReadsOnlyPagesOfHits: on workload.Default(1)'s node 0 behind the
// daemon's 64-frame pool, a Match fetches exactly the pages holding a
// record that matches — not the pages whose keywords merely contain the
// query (kw1 in kw10…kw19), not the page of a keyword that holds the query
// across a NUL — from the first Match after Open on; the empty query,
// which nothing matches, reads nothing.
func TestPlanReadsOnlyPagesOfHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node0.storm")
	opts := storm.Options{BufferFrames: 64}
	store, err := storm.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Default(1)
	objects := spec.Objects(0)
	objects = append(objects,
		&storm.Object{Name: "fold-dotted", Keywords: []string{"\u0130"}, Data: make([]byte, 900)},
		&storm.Object{Name: "fold-kelvin", Keywords: []string{"\u212a"}, Data: make([]byte, 900)}, // the Kelvin sign
		&storm.Object{Name: "fold-long", Keywords: []string{"\u017f"}, Data: make([]byte, 900)},
		&storm.Object{Name: "nul-inside", Keywords: []string{"a\x00b"}, Data: make([]byte, 900)},
		&storm.Object{Name: "wide-" + strings.Repeat("n", 300), Keywords: []string{"wide", strings.Repeat("w", 300)}, Data: make([]byte, 64)},
	)
	pageOf := make(map[string]storm.PageID, len(objects))
	for _, o := range objects {
		oid, err := store.Put(o)
		if err != nil {
			t.Fatal(err)
		}
		pageOf[o.Name] = oid.Page
	}
	// Reopened, the pool is cold and the plan is what Open built.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = storm.Open(path, opts); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := obs.NewRegistry()
	store.RegisterMetrics(reg)

	// match runs one Match and returns its hits with the pages it fetched.
	match := func(query string) (hits, fetched int) {
		t.Helper()
		before := reg.Snapshot()
		got, err := store.Match(query)
		if err != nil {
			t.Fatalf("Match(%q): %v", query, err)
		}
		delta := reg.Snapshot().DeltaSince(before)
		return len(got), int(delta.Value("bestpeer_storm_pool_hits") + delta.Value("bestpeer_storm_pool_misses"))
	}
	for _, query := range []string{
		"kw42",
		"kw1", // a keyword of its own and a prefix of ten more
		"kw",  // part of every keyword, all of none
		"KW42",
		"object-0417", // part of one name
		"N0-OBJECT-04",
		"fold-",
		"\u0130", // İ, which Go folds to a plain i
		"i",
		"\u212a", // the Kelvin sign folds to k
		"K",
		"\u017f", // long s folds to itself, and S does not fold to it
		"S",
		"a\x00b",
		"a", // "a\x00b" holds it up to a NUL, and is not it
		"wide",
		"nothing-has-this",
		"",
	} {
		want := make(map[storm.PageID]bool)
		hits := 0
		for _, o := range objects {
			if o.Matches(query) {
				hits++
				want[pageOf[o.Name]] = true
			}
		}
		got, fetched := match(query)
		if got != hits {
			t.Errorf("Match(%q) = %d objects, want %d", query, got, hits)
		}
		if fetched != len(want) {
			t.Errorf("Match(%q), %d hits: fetched %d pages, want the %d that hold a match", query, hits, fetched, len(want))
		}
	}
	if hits := spec.MatchCount(0, "kw1"); hits < 5 {
		t.Fatalf("kw1 has %d hits at node 0; the test wants a query with hits that is a prefix of other keywords", hits)
	}
}
