package qroute

import (
	"strconv"
	"strings"
	"time"

	"bestpeer/internal/obs"
)

// Options configures a node's qroute engine. The zero value means
// "disabled": every knob is gated behind Enable so existing
// configurations keep the paper's plain flood-everything behavior.
type Options struct {
	// Enable turns the subsystem on.
	Enable bool
	// Cache bounds and freshness; see CacheOptions.
	Cache CacheOptions
	// Route learning and selection; see RouteOptions.
	Route RouteOptions
}

// Engine couples one node's answer cache and routing index and publishes
// their metric families. All methods are safe for concurrent use; a nil
// *Engine is valid and means "disabled" (lookups miss, plans flood).
type Engine struct {
	cache *cache
	index *routingIndex

	hitBase, hitServe, hitNeg *obs.Counter
	missBase, missServe       *obs.Counter
	evictions, invalidations  *obs.Counter
	routeSelective            *obs.Counter
	routeFlood                *obs.Counter
	routeExplore              *obs.Counter
	neighborsForgotten        *obs.Counter
}

// NewEngine builds an engine and registers its metrics. A nil registry
// uses a private one (metrics still count, just unexported).
func NewEngine(opt Options, reg *obs.Registry) *Engine {
	if !opt.Enable {
		return nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cache: newCache(opt.Cache),
		index: newRoutingIndex(opt.Route),
	}
	const (
		hits   = "bestpeer_qroute_cache_hits_total"
		hitsD  = "Answer-cache hits by site: base (whole query served locally), serve (peer skipped a store scan), negative (cached no-match)."
		misses = "bestpeer_qroute_cache_misses_total"
		missD  = "Answer-cache misses by site."
		routes = "bestpeer_qroute_routes_total"
		routeD = "Fan-out decisions: selective (learned top-f route), flood (low confidence fallback), explore (ε-exploration flood)."
	)
	e.hitBase = reg.Counter(hits, hitsD, obs.L("where", "base"))
	e.hitServe = reg.Counter(hits, hitsD, obs.L("where", "serve"))
	e.hitNeg = reg.Counter(hits, hitsD, obs.L("where", "negative"))
	e.missBase = reg.Counter(misses, missD, obs.L("where", "base"))
	e.missServe = reg.Counter(misses, missD, obs.L("where", "serve"))
	e.evictions = reg.Counter("bestpeer_qroute_cache_evictions_total",
		"Answer-cache entries evicted by the LRU capacity bound.")
	e.invalidations = reg.Counter("bestpeer_qroute_cache_invalidations_total",
		"Answer-cache entries invalidated by store-mutation epoch bumps.")
	e.routeSelective = reg.Counter(routes, routeD, obs.L("mode", "selective"))
	e.routeFlood = reg.Counter(routes, routeD, obs.L("mode", "flood"))
	e.routeExplore = reg.Counter(routes, routeD, obs.L("mode", "explore"))
	e.neighborsForgotten = reg.Counter("bestpeer_qroute_neighbors_forgotten_total",
		"Departed neighbors evicted from the routing index and answer cache.")
	reg.GaugeFunc("bestpeer_qroute_cache_entries",
		"Answer-cache entries currently held.",
		func() float64 { return float64(e.cache.Stats().Entries) })
	reg.GaugeFunc("bestpeer_qroute_cache_bytes",
		"Answer-cache accounted payload bytes.",
		func() float64 { return float64(e.cache.Stats().Bytes) })
	reg.GaugeFunc("bestpeer_qroute_epoch",
		"Store-mutation epoch versioning the answer cache.",
		func() float64 { return float64(e.cache.Epoch()) })
	return e
}

// Key builds the answer-cache key for an agent fingerprint: the class,
// the query mode, the requester's access level and the agent's canonical
// query key, all of which shape the result set.
func Key(class string, mode uint8, access int, queryKey string) string {
	var b strings.Builder
	b.Grow(len(class) + len(queryKey) + 12)
	b.WriteString(class)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(int(mode)))
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(access))
	b.WriteByte(0x1f)
	b.WriteString(queryKey)
	return b.String()
}

// Epoch returns the engine's current store-mutation epoch (0 when
// disabled).
func (e *Engine) Epoch() uint64 {
	if e == nil {
		return 0
	}
	return e.cache.Epoch()
}

// BumpEpoch is the store-mutation hook: it advances the epoch and
// returns how many cached entries that invalidated.
func (e *Engine) BumpEpoch() int {
	if e == nil {
		return 0
	}
	n := e.cache.BumpEpoch()
	e.invalidations.Add(uint64(n))
	return n
}

// cache sites: the same cache stores base entries (a whole collected
// answer set) and serve entries (one peer's local results), disambiguated
// by key prefix so the two can never alias.
const (
	siteBase  = "b\x1f"
	siteServe = "s\x1f"
)

// GetBase looks up a whole-query answer set cached at the base node.
func (e *Engine) GetBase(key string, now time.Time) (val any, negative, ok bool) {
	if e == nil {
		return nil, false, false
	}
	return e.get(siteBase+key, e.hitBase, e.missBase, now)
}

// PutBase caches a whole-query answer set at the base node. epoch must
// have been read before the query ran (see cache.Put).
func (e *Engine) PutBase(key string, val any, size int, negative bool, epoch uint64, now time.Time) {
	e.PutBaseFrom(key, val, size, negative, epoch, now, nil)
}

// PutBaseFrom is PutBase with answer provenance: sites lists the peer
// addresses the answers came from, so ForgetNeighbor can evict entries
// served by a peer that later departs.
func (e *Engine) PutBaseFrom(key string, val any, size int, negative bool, epoch uint64, now time.Time, sites []string) {
	if e == nil {
		return
	}
	if n := e.cache.PutFrom(siteBase+key, val, size, negative, epoch, now, sites); n > 0 {
		e.evictions.Add(uint64(n))
	}
}

// ForgetNeighbor evicts everything learned about or through a departed
// neighbor: its per-term routing counters and every cached answer set
// whose provenance includes it. Call it when a direct peer leaves or is
// dropped as dead, so long-lived nodes under churn do not hold unbounded
// dead-neighbor state. It returns how many index counters plus cache
// entries were evicted.
func (e *Engine) ForgetNeighbor(addr string) int {
	if e == nil || addr == "" {
		return 0
	}
	n := e.index.Forget(addr)
	dropped := e.cache.DropSite(addr)
	if dropped > 0 {
		e.evictions.Add(uint64(dropped))
	}
	e.neighborsForgotten.Inc()
	return n + dropped
}

// GetServe looks up a peer-local result set cached at a serving node.
func (e *Engine) GetServe(key string, now time.Time) (val any, negative, ok bool) {
	if e == nil {
		return nil, false, false
	}
	return e.get(siteServe+key, e.hitServe, e.missServe, now)
}

// PutServe caches a peer-local result set at a serving node.
func (e *Engine) PutServe(key string, val any, size int, negative bool, epoch uint64, now time.Time) {
	if e == nil {
		return
	}
	e.put(siteServe+key, val, size, negative, epoch, now)
}

func (e *Engine) get(key string, hit, miss *obs.Counter, now time.Time) (any, bool, bool) {
	if e == nil {
		return nil, false, false
	}
	val, negative, ok := e.cache.Get(key, now)
	switch {
	case !ok:
		miss.Inc()
	case negative:
		e.hitNeg.Inc()
	default:
		hit.Inc()
	}
	return val, negative, ok
}

func (e *Engine) put(key string, val any, size int, negative bool, epoch uint64, now time.Time) {
	if n := e.cache.Put(key, val, size, negative, epoch, now); n > 0 {
		e.evictions.Add(uint64(n))
	}
}

// Observe feeds one attributed answer batch into the routing index.
func (e *Engine) Observe(terms []string, via string, answers, hops int, now time.Time) {
	if e == nil {
		return
	}
	e.index.Observe(terms, via, answers, hops, now)
}

// Select plans a fan-out; a nil engine always floods.
func (e *Engine) Select(terms []string, neighbors []string, ttl uint8, now time.Time) Plan {
	if e == nil {
		return Plan{Targets: neighbors, TTL: ttl}
	}
	p := e.index.Select(terms, neighbors, ttl, now)
	switch {
	case p.Selective:
		e.routeSelective.Inc()
	case p.Explored:
		e.routeExplore.Inc()
	default:
		e.routeFlood.Inc()
	}
	return p
}

// Stats is the merged snapshot served by the /cache admin route and the
// shell's cache command.
type Stats struct {
	Enabled bool       `json:"enabled"`
	Cache   CacheStats `json:"cache"`
	Terms   int        `json:"terms"`
	// Routing decision counters.
	Selective uint64 `json:"selective"`
	Flood     uint64 `json:"flood"`
	Explored  uint64 `json:"explored"`
}

// Stats snapshots the engine; a nil engine reports Enabled=false.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{
		Enabled:   true,
		Cache:     e.cache.Stats(),
		Terms:     e.index.Terms(),
		Selective: e.routeSelective.Value(),
		Flood:     e.routeFlood.Value(),
		Explored:  e.routeExplore.Value(),
	}
}
