package qroute

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestCacheHitMissAndNegative(t *testing.T) {
	c := newCache(CacheOptions{})
	if _, _, ok := c.Get("k", t0); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put("k", "answers", 7, false, c.Epoch(), t0)
	val, neg, ok := c.Get("k", t0.Add(time.Second))
	if !ok || neg || val.(string) != "answers" {
		t.Fatalf("want positive hit, got val=%v neg=%v ok=%v", val, neg, ok)
	}
	c.Put("none", nil, 0, true, c.Epoch(), t0)
	if _, neg, ok := c.Get("none", t0.Add(time.Second)); !ok || !neg {
		t.Fatalf("want negative hit, got neg=%v ok=%v", neg, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.NegativeHits != 1 || s.Misses != 1 || s.Insertions != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := newCache(CacheOptions{TTL: 10 * time.Second})
	c.Put("pos", 1, 1, false, c.Epoch(), t0)
	c.Put("neg", nil, 0, true, c.Epoch(), t0)
	// Negative entries age out on the short TTL, positive ones survive.
	if _, _, ok := c.Get("neg", t0.Add(negTTL)); !ok {
		t.Fatal("negative entry must survive up to negTTL")
	}
	if _, _, ok := c.Get("neg", t0.Add(negTTL+time.Nanosecond)); ok {
		t.Fatal("negative entry must expire after negTTL")
	}
	if _, _, ok := c.Get("pos", t0.Add(negTTL+time.Nanosecond)); !ok {
		t.Fatal("positive entry must survive inside TTL")
	}
	if _, _, ok := c.Get("pos", t0.Add(11*time.Second)); ok {
		t.Fatal("positive entry must expire after TTL")
	}
	if s := c.Stats(); s.Expired != 2 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c := newCache(CacheOptions{})
	c.Put("a", 1, 1, false, c.Epoch(), t0)
	c.Put("b", 2, 1, false, c.Epoch(), t0)
	if n := c.BumpEpoch(); n != 2 {
		t.Fatalf("BumpEpoch invalidated %d entries, want 2", n)
	}
	if _, _, ok := c.Get("a", t0); ok {
		t.Fatal("entry from an old epoch must not be served")
	}
	// An entry inserted with a pre-bump epoch (writer raced the
	// mutation) is rejected at read time.
	old := c.Epoch()
	c.BumpEpoch()
	c.Put("c", 3, 1, false, old, t0)
	if _, _, ok := c.Get("c", t0); ok {
		t.Fatal("stale-epoch insertion must be rejected at Get")
	}
	if s := c.Stats(); s.Invalidated != 3 {
		t.Fatalf("want 3 invalidated, got %+v", s)
	}
}

func TestCacheLRUEvictionByEntries(t *testing.T) {
	c := newCache(CacheOptions{})
	for i := 0; i < maxEntries; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1, false, c.Epoch(), t0)
	}
	// Touch k0 so k1 becomes the LRU victim.
	c.Get("k0", t0)
	c.Put("new", -1, 1, false, c.Epoch(), t0)
	if _, _, ok := c.Get("k1", t0); ok {
		t.Fatal("LRU victim k1 must have been evicted")
	}
	for _, k := range []string{"k0", "k2", fmt.Sprintf("k%d", maxEntries-1), "new"} {
		if _, _, ok := c.Get(k, t0); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != maxEntries {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheByteCapacityAccounting(t *testing.T) {
	const u = maxBytes / 10
	c := newCache(CacheOptions{})
	c.Put("a", "x", 4*u, false, c.Epoch(), t0)
	c.Put("b", "y", 4*u, false, c.Epoch(), t0)
	if s := c.Stats(); s.Bytes != 8*u {
		t.Fatalf("bytes = %d, want %d", s.Bytes, 8*u)
	}
	// Third entry exceeds the budget: the LRU entry goes.
	if n := c.Put("c", "z", 4*u, false, c.Epoch(), t0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, _, ok := c.Get("a", t0); ok {
		t.Fatal("a should have been evicted for capacity")
	}
	// Replacing an entry adjusts accounting instead of double counting.
	c.Put("b", "yy", 6*u, false, c.Epoch(), t0)
	if s := c.Stats(); s.Bytes != 10*u {
		t.Fatalf("bytes after replace = %d, want %d", s.Bytes, 10*u)
	}
	// An oversized value is refused outright.
	c.Put("huge", "h", maxBytes+1, false, c.Epoch(), t0)
	if _, _, ok := c.Get("huge", t0); ok {
		t.Fatal("oversized value must not be cached")
	}
}
