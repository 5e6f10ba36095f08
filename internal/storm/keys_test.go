package storm_test

// What the walker's memory skips and what it does not, counted in pages on
// the paper's per-node store. An external test package: workload imports
// storm.

import (
	"path/filepath"
	"strings"
	"testing"

	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/workload"
)

// TestWalkerReadsOnlyPagesThatMayAnswer: on workload.Default(1)'s node 0
// behind the daemon's 64-frame pool, a warm Match reads exactly the pages
// holding a record that matches — not the pages whose keywords merely
// contain the query (kw1 in kw10…kw19) — plus the one page too wide to be
// remembered; a NUL inside a keyword costs at most a spurious read; the
// empty query still walks the heap.
func TestWalkerReadsOnlyPagesThatMayAnswer(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := storm.Open(filepath.Join(t.TempDir(), "node0.storm"), storm.Options{BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.RegisterMetrics(reg)

	spec := workload.Default(1)
	objects := spec.Objects(0)
	wide := &storm.Object{Name: "wide-" + strings.Repeat("n", 300), Keywords: []string{"wide", strings.Repeat("w", 300)}, Data: make([]byte, 64)}
	objects = append(objects,
		&storm.Object{Name: "fold-dotted", Keywords: []string{"\u0130"}, Data: make([]byte, 900)},
		&storm.Object{Name: "fold-kelvin", Keywords: []string{"\u212a"}, Data: make([]byte, 900)}, // the Kelvin sign
		&storm.Object{Name: "fold-long", Keywords: []string{"\u017f"}, Data: make([]byte, 900)},
		&storm.Object{Name: "nul-inside", Keywords: []string{"a\x00b"}, Data: make([]byte, 900)},
		wide,
	)
	pageOf := make(map[string]storm.PageID, len(objects))
	for _, o := range objects {
		oid, err := store.Put(o)
		if err != nil {
			t.Fatal(err)
		}
		pageOf[o.Name] = oid.Page
	}
	pages := store.Stats().DataPages

	// walk runs one Match and returns its hits with the pages it read.
	walk := func(query string) (hits, read int) {
		t.Helper()
		before := reg.Snapshot()
		got, err := store.Match(query)
		if err != nil {
			t.Fatalf("Match(%q): %v", query, err)
		}
		delta := reg.Snapshot().DeltaSince(before)
		read = int(delta.Value("bestpeer_storm_scan_pages_read_total"))
		if skipped := int(delta.Value("bestpeer_storm_scan_pages_skipped_total")); read+skipped != pages {
			t.Fatalf("Match(%q): %d pages read + %d skipped, the heap has %d", query, read, skipped, pages)
		}
		return len(got), read
	}
	if _, read := walk("nothing-is-remembered-yet"); read != pages {
		t.Fatalf("the first Match read %d of %d pages", read, pages)
	}
	// What that left behind: the same order as the catalog's names, a
	// fiftieth of the heap at most.
	if keys, heap := store.KeyBytes(), pages*storm.PageSize; keys == 0 || keys*50 > heap {
		t.Errorf("the walker remembers %d bytes of keys for a heap of %d", keys, heap)
	} else {
		t.Logf("%d pages, %d bytes of keys (%.2f%% of the heap)", pages, keys, 100*float64(keys)/float64(heap))
	}

	// The over-wide page is never remembered, so every walk reads it.
	const always = 1
	for _, tc := range []struct {
		query    string
		spurious int // pages read for a NUL's sake that hold no match
	}{
		{"kw42", 0},
		{"kw1", 0}, // a keyword of its own and a prefix of ten more
		{"kw", 0},  // part of every keyword, all of none
		{"KW42", 0},
		{"object-0417", 0}, // part of one name
		{"N0-OBJECT-04", 0},
		{"fold-", 0},
		{"\u0130", 0}, // İ, which Go folds to a plain i
		{"i", 0},
		{"\u212a", 0}, // the Kelvin sign folds to k
		{"K", 0},
		{"\u017f", 0}, // long s folds to itself, and S does not fold to it
		{"S", 0},
		{"a\x00b", 0},
		{"a", 1}, // "\x00a\x00" lies inside the keys of "a\x00b"
		{"wide", 0},
		{"nothing-has-this", 0},
	} {
		want := map[storm.PageID]bool{pageOf[wide.Name]: true}
		hits := 0
		for _, o := range objects {
			if o.Matches(tc.query) {
				hits++
				want[pageOf[o.Name]] = true
			}
		}
		got, read := walk(tc.query)
		if got != hits {
			t.Errorf("Match(%q) = %d objects, want %d", tc.query, got, hits)
		}
		if read != len(want)+tc.spurious {
			t.Errorf("Match(%q), %d hits: read %d pages, want the %d that hold a match or are not remembered + %d spurious", tc.query, hits, read, len(want), tc.spurious)
		}
		if read > hits+always+tc.spurious {
			t.Errorf("Match(%q): read %d pages for %d hits", tc.query, read, hits)
		}
	}
	if hits := spec.MatchCount(0, "kw1"); hits < 5 {
		t.Fatalf("kw1 has %d hits at node 0; the test wants a query with hits that is a prefix of other keywords", hits)
	}
	if hits, read := walk(""); hits != 0 || read != pages {
		t.Errorf("the empty query: %d hits, %d of %d pages read; want none and all", hits, read, pages)
	}
}
