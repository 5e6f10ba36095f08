package storm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// placementOIDs replays a seeded 2000-op Put/Replace/Delete mix (record
// sizes 40 B – 1.5 KB over 300 names, so pages fill, tombstone and get
// reused, and some first-fit candidates turn the record down) and returns where every Put landed, in op order.
func placementOIDs(t *testing.T, opts Options) []string {
	t.Helper()
	s := tempStore(t, opts)
	rng := rand.New(rand.NewSource(1))
	var out []string
	for op := 0; op < 2000; op++ {
		name := fmt.Sprintf("obj-%03d", rng.Intn(300))
		if rng.Intn(4) == 0 {
			if s.Has(name) {
				if err := s.Delete(name); err != nil {
					t.Fatalf("op %d: delete %s: %v", op, name, err)
				}
			}
			continue
		}
		size := 40 + rng.Intn(1460)
		oid, err := s.Put(obj(name, []string{fmt.Sprintf("kw%d", op%7)}, size))
		if err != nil {
			t.Fatalf("op %d: put %s: %v", op, name, err)
		}
		out = append(out, oid.String())
	}
	return out
}

// TestPlacementGolden pins store layout: the OIDs of a seeded op mix must
// equal the list recorded before insertLocked's map walk and sort became
// the ordered first-fit tree. Placement decides page order, page order
// decides answer order, so a drift here is a behaviour change, not a
// refactor.
func TestPlacementGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		opts   Options
	}{
		{"placement-seed1.golden", Options{}},
		{"placement-seed1.golden", Options{BufferFrames: 4}},
		// B+tree pages interleave with heap pages here, so the ids differ.
		{"placement-seed1-catalog.golden", Options{PersistentCatalog: true, PersistentIndex: true}},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Fields(string(raw))
		got := placementOIDs(t, tc.opts)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d placements, %s has %d", tc.opts, len(got), tc.golden, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: placement %d landed at %s, %s says %s", tc.opts, i, got[i], tc.golden, want[i])
			}
		}
	}
}
