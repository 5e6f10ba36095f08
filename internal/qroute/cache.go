// Package qroute is BestPeer's traffic-reduction subsystem: a bounded,
// epoch-versioned answer cache plus a learned selective-routing index.
// Both feed off signals the query path already produces — answer batches
// and store mutations — and both fail safe: a cache miss or a
// low-confidence route falls back to the plain flood the paper
// describes, so recall never depends on qroute being right.
package qroute

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Cache bounds: the cached fingerprints, their accounted payload bytes,
// and how long a negative entry (a query that matched nothing) stays fresh.
const (
	maxEntries = 256
	maxBytes   = 4 << 20
	negTTL     = 2 * time.Second
)

// CacheOptions tunes an answer cache. The zero value picks the documented
// default.
type CacheOptions struct {
	// TTL bounds how long a positive entry stays fresh. The epoch hook
	// invalidates local staleness immediately; the TTL bounds staleness
	// of *remote* answers, which no local epoch can see. Default 30s.
	TTL time.Duration
}

func (o CacheOptions) withDefaults() CacheOptions {
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	return o
}

// Cache is a bounded LRU answer cache versioned by a store-mutation
// epoch. Entries are tagged with the epoch observed *before* their value
// was computed; BumpEpoch (wired to storm.Store.OnMutation) makes every
// older entry unservable, so a cached answer can never reflect a store
// state older than the last committed mutation. Safe for concurrent use.
type Cache struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	opt     CacheOptions
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int

	// Counters, guarded by mu; surfaced by Stats.
	hits, negHits, misses          uint64
	insertions, evictions, expired uint64
	invalidated, forgotten         uint64
}

type entry struct {
	key      string
	val      any
	size     int
	negative bool
	epoch    uint64
	at       time.Time
	// sites are the addresses the cached value's answers came from
	// (serve sites / first-hop neighbors). DropSite evicts by them when
	// a peer departs, so cached answers never outlive their provenance.
	sites []string
}

// NewCache returns an empty cache.
func NewCache(opt CacheOptions) *Cache {
	return &Cache{
		opt:     opt.withDefaults(),
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Epoch returns the current store-mutation epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// BumpEpoch advances the epoch and drops every entry tagged with an
// older one. It returns how many entries were invalidated. Entries
// inserted concurrently with a stale pre-bump epoch are caught at Get.
func (c *Cache) BumpEpoch() int {
	cur := c.epoch.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		if el.Value.(*entry).epoch < cur {
			c.removeLocked(el)
			dropped++
		}
		el = prev
	}
	c.invalidated += uint64(dropped)
	return dropped
}

// Get returns the value cached under key if it is still servable: same
// epoch, within its freshness TTL. negative reports whether the entry
// records "no answers".
func (c *Cache) Get(key string, now time.Time) (val any, negative, ok bool) {
	cur := c.epoch.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses++
		return nil, false, false
	}
	e := el.Value.(*entry)
	if e.epoch != cur {
		c.removeLocked(el)
		c.invalidated++
		c.misses++
		return nil, false, false
	}
	ttl := c.opt.TTL
	if e.negative {
		ttl = negTTL
	}
	if now.Sub(e.at) > ttl {
		c.removeLocked(el)
		c.expired++
		c.misses++
		return nil, false, false
	}
	c.lru.MoveToFront(el)
	if e.negative {
		c.negHits++
	} else {
		c.hits++
	}
	return e.val, e.negative, true
}

// Put caches val under key, tagged with the epoch the caller observed
// before computing val (so a mutation racing the computation invalidates
// the entry rather than being masked by it). size is the accounted
// payload size in bytes. Values larger than the byte budget are not
// cached. It returns how many entries were evicted to make room.
func (c *Cache) Put(key string, val any, size int, negative bool, epoch uint64, now time.Time) int {
	return c.PutFrom(key, val, size, negative, epoch, now, nil)
}

// PutFrom is Put with answer provenance: sites lists the peer addresses
// the cached value's answers came from, so DropSite can evict entries
// whose provenance departs the overlay.
func (c *Cache) PutFrom(key string, val any, size int, negative bool, epoch uint64, now time.Time, sites []string) int {
	if size > maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[key]; found {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size, e.negative, e.epoch, e.at = val, size, negative, epoch, now
		e.sites = sites
		c.lru.MoveToFront(el)
	} else {
		el := c.lru.PushFront(&entry{key: key, val: val, size: size,
			negative: negative, epoch: epoch, at: now, sites: sites})
		c.entries[key] = el
		c.bytes += size
		c.insertions++
	}
	evicted := 0
	for c.lru.Len() > maxEntries || c.bytes > maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
		evicted++
	}
	return evicted
}

// DropSite evicts every entry whose provenance includes addr — the
// cache-affinity half of forgetting a departed neighbor. It returns how
// many entries were dropped.
func (c *Cache) DropSite(addr string) int {
	if addr == "" {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*entry)
		for _, s := range e.sites {
			if s == addr {
				c.removeLocked(el)
				c.forgotten++
				dropped++
				break
			}
		}
		el = prev
	}
	return dropped
}

// removeLocked unlinks el; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Epoch        uint64 `json:"epoch"`
	Entries      int    `json:"entries"`
	Bytes        int    `json:"bytes"`
	Hits         uint64 `json:"hits"`
	NegativeHits uint64 `json:"negative_hits"`
	Misses       uint64 `json:"misses"`
	Insertions   uint64 `json:"insertions"`
	Evictions    uint64 `json:"evictions"`
	Expired      uint64 `json:"expired"`
	Invalidated  uint64 `json:"invalidated"`
	// Forgotten counts entries evicted because a provenance site
	// departed (DropSite).
	Forgotten uint64 `json:"forgotten"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Epoch:        c.epoch.Load(),
		Entries:      c.lru.Len(),
		Bytes:        c.bytes,
		Hits:         c.hits,
		NegativeHits: c.negHits,
		Misses:       c.misses,
		Insertions:   c.insertions,
		Evictions:    c.evictions,
		Expired:      c.expired,
		Invalidated:  c.invalidated,
		Forgotten:    c.forgotten,
	}
}
