package storm

import "testing"

func drain(r replacer) []int {
	var out []int
	for {
		f, ok := r.Victim()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// pinUnpin is what the pool does to the replacer when an evictable frame
// is fetched and released again.
func pinUnpin(r replacer, frame int) {
	r.Remove(frame)
	r.Insert(frame)
}

func TestLRUOrder(t *testing.T) {
	r := newLRU()
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	pinUnpin(r, 1) // 1 becomes most recent
	got := drain(r)
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRU order = %v, want %v", got, want)
		}
	}
}

func TestMRUOrder(t *testing.T) {
	r := newMRU()
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	f, ok := r.Victim()
	if !ok || f != 3 {
		t.Fatalf("MRU victim = %d, want 3", f)
	}
	pinUnpin(r, 1)
	f, _ = r.Victim()
	if f != 1 {
		t.Fatalf("MRU victim after pin/unpin = %d, want 1", f)
	}
}

func TestClockSecondChance(t *testing.T) {
	r := newClock()
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	// All ref bits set; first sweep clears them, so victim is 1 (hand order).
	f, ok := r.Victim()
	if !ok || f != 1 {
		t.Fatalf("clock first victim = %d, want 1", f)
	}
	// Pin and unpin 2: its bit is set again, so it survives the next
	// selection; 3's bit is already clear.
	pinUnpin(r, 2)
	f, _ = r.Victim()
	if f != 3 {
		t.Fatalf("clock second victim = %d, want 3", f)
	}
	f, _ = r.Victim()
	if f != 2 {
		t.Fatalf("clock third victim = %d, want 2", f)
	}
}

func TestClockRemoveKeepsRingConsistent(t *testing.T) {
	r := newClock()
	for i := 1; i <= 5; i++ {
		r.Insert(i)
	}
	r.Remove(3)
	r.Remove(1)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	seen := make(map[int]bool)
	for {
		f, ok := r.Victim()
		if !ok {
			break
		}
		if seen[f] {
			t.Fatalf("frame %d evicted twice", f)
		}
		seen[f] = true
	}
	if len(seen) != 3 || seen[1] || seen[3] {
		t.Fatalf("evicted set = %v", seen)
	}
}

func TestReplacerCommonBehaviours(t *testing.T) {
	for _, name := range []string{"lru", "mru", "clock"} {
		t.Run(name, func(t *testing.T) {
			r := newReplacer(name)
			if r.Name() != name {
				t.Fatalf("Name = %q", r.Name())
			}
			if _, ok := r.Victim(); ok {
				t.Fatal("empty replacer produced a victim")
			}
			r.Remove(99) // absent: no-op
			r.Insert(1)
			r.Insert(1) // duplicate insert is a refresh, not a second entry
			if r.Len() != 1 {
				t.Fatalf("len after dup insert = %d", r.Len())
			}
			r.Insert(2)
			pinUnpin(r, 2)
			r.Remove(1)
			f, ok := r.Victim()
			if !ok || f != 2 {
				t.Fatalf("victim = %d/%v, want 2", f, ok)
			}
			if r.Len() != 0 {
				t.Fatalf("len after drain = %d", r.Len())
			}
		})
	}
}

func TestNewReplacerUnknownFallsBackToLRU(t *testing.T) {
	if r := newReplacer("nonsense"); r.Name() != "lru" {
		t.Fatalf("fallback = %q", r.Name())
	}
}

// TestPoolVictimOrder drives each policy through a pool of three frames:
// pages a, b and c are unpinned in that order, a is fetched and unpinned
// again, then a fourth page forces one eviction.
func TestPoolVictimOrder(t *testing.T) {
	for policy, want := range map[string]int{"lru": 1, "mru": 0, "clock": 2} {
		t.Run(policy, func(t *testing.T) {
			bp := newBufferPool(tempFile(t), 3, newReplacer(policy))
			var ids []PageID
			for i := 0; i < 3; i++ {
				p, err := bp.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, p.ID())
			}
			for _, id := range ids {
				if err := bp.Unpin(id, false); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bp.Fetch(ids[0]); err != nil {
				t.Fatal(err)
			}
			if err := bp.Unpin(ids[0], false); err != nil {
				t.Fatal(err)
			}
			if _, err := bp.NewPage(); err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if _, resident := bp.table[id]; resident == (i == want) {
					t.Fatalf("%s evicted the wrong page: want page %d (of a, b, c) gone, table %v", policy, want, bp.table)
				}
			}
		})
	}
}
