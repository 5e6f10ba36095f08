package qroute

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// halfLife is the exponential-decay half-life of the per-neighbor hit
// counters: a neighbor that answered n times counts as n/2 after one
// half-life of silence. maxTerms bounds how many distinct term
// fingerprints the index tracks; the least recently observed term is
// dropped on overflow.
const (
	halfLife = 5 * time.Minute
	maxTerms = 4096
)

// RouteOptions tunes the learned routing index. Zero values pick the
// documented defaults.
type RouteOptions struct {
	// TopF is how many top-scoring first-hop neighbors a confident
	// selective route fans out to. Default 2.
	TopF int
	// Epsilon is the exploration slice: this fraction of confident
	// routes floods anyway (at full TTL), so the index keeps seeing
	// answers from neighbors it would otherwise stop trying. Default
	// 0.1; negative disables exploration entirely.
	Epsilon float64
	// MinScore is the confidence threshold: when the summed decayed
	// score across all candidate neighbors is below it, the plan falls
	// back to a full flood. Default 1.0.
	MinScore float64
	// Seed seeds the exploration RNG, for reproducible simulations.
	// Zero uses a fixed default.
	Seed int64
}

func (o RouteOptions) withDefaults() RouteOptions {
	if o.TopF <= 0 {
		o.TopF = 2
	}
	if o.Epsilon < 0 {
		o.Epsilon = 0
	} else if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.MinScore <= 0 {
		o.MinScore = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// decayed is an exponentially-decayed accumulator: value() halves every
// HalfLife without updates.
type decayed struct {
	v  float64
	at time.Time
}

func (d *decayed) value(now time.Time, halfLife time.Duration) float64 {
	if d.at.IsZero() || d.v == 0 {
		return 0
	}
	age := now.Sub(d.at)
	if age <= 0 {
		return d.v
	}
	return d.v * math.Exp2(-float64(age)/float64(halfLife))
}

func (d *decayed) add(x float64, now time.Time, halfLife time.Duration) {
	d.v = d.value(now, halfLife) + x
	d.at = now
}

// termStats is everything the index has learned about one query term.
type termStats struct {
	vias map[string]*decayed // first-hop neighbor -> decayed answer count
	hops decayed             // decayed max answer depth, for TTL scoping
	seen time.Time           // last observation, for term eviction
}

// RoutingIndex learns, per query-term fingerprint, which first-hop
// neighbors produce answers and how deep those answers sit. The query
// path asks it for a Plan: either a confident selective route (top-f
// neighbors, TTL scoped to the learned answer depth plus slack) or a
// full flood when confidence is low. Safe for concurrent use.
type RoutingIndex struct {
	mu    sync.Mutex
	opt   RouteOptions
	terms map[string]*termStats
	rng   *rand.Rand
}

// NewRoutingIndex returns an empty index.
func NewRoutingIndex(opt RouteOptions) *RoutingIndex {
	opt = opt.withDefaults()
	return &RoutingIndex{
		opt:   opt,
		terms: make(map[string]*termStats),
		rng:   rand.New(rand.NewSource(opt.Seed)),
	}
}

// Observe credits via — the base's first-hop neighbor an answer batch
// travelled through — with answers hits for each query term, and records
// the depth the batch was produced at.
func (x *RoutingIndex) Observe(terms []string, via string, answers, hops int, now time.Time) {
	if via == "" || answers <= 0 || len(terms) == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, t := range terms {
		ts := x.terms[t]
		if ts == nil {
			x.evictTermLocked()
			ts = &termStats{vias: make(map[string]*decayed)}
			x.terms[t] = ts
		}
		ts.seen = now
		d := ts.vias[via]
		if d == nil {
			d = &decayed{}
			ts.vias[via] = d
		}
		d.add(float64(answers), now, halfLife)
		if h := float64(hops); h > ts.hops.value(now, halfLife) {
			ts.hops.v, ts.hops.at = h, now
		}
	}
}

// evictTermLocked drops the least recently observed term when the index
// is at capacity; callers hold x.mu.
func (x *RoutingIndex) evictTermLocked() {
	if len(x.terms) < maxTerms {
		return
	}
	var oldest string
	var oldestAt time.Time
	for t, ts := range x.terms {
		if oldest == "" || ts.seen.Before(oldestAt) {
			oldest, oldestAt = t, ts.seen
		}
	}
	delete(x.terms, oldest)
}

// Plan is a routing decision for one fan-out.
type Plan struct {
	// Targets is the subset of candidate neighbors to forward to. On a
	// flood it is every candidate.
	Targets []string
	// TTL is the hop budget to send with; selective plans scope it to
	// the learned answer depth plus one hop of slack.
	TTL uint8
	// Selective reports whether the plan prunes the flood.
	Selective bool
	// Explored reports an ε-exploration flood: confidence was high but
	// the index chose to flood anyway to keep learning.
	Explored bool
}

// Select plans a fan-out to neighbors for a query with the given terms
// and default TTL. Low confidence — an unknown term mix, decayed history
// or no scored neighbor among the candidates — falls back to a full
// flood, so selective routing can only ever save traffic, not recall.
func (x *RoutingIndex) Select(terms []string, neighbors []string, ttl uint8, now time.Time) Plan {
	flood := Plan{Targets: neighbors, TTL: ttl}
	if len(terms) == 0 || len(neighbors) == 0 {
		return flood
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	scores := make(map[string]float64)
	total, maxHops := 0.0, 0.0
	for _, t := range terms {
		ts := x.terms[t]
		if ts == nil {
			continue
		}
		for _, nb := range neighbors {
			if d := ts.vias[nb]; d != nil {
				v := d.value(now, halfLife)
				scores[nb] += v
				total += v
			}
		}
		if h := ts.hops.value(now, halfLife); h > maxHops {
			maxHops = h
		}
	}
	if total < x.opt.MinScore || len(scores) == 0 {
		return flood
	}
	if x.rng.Float64() < x.opt.Epsilon {
		flood.Explored = true
		return flood
	}
	ranked := make([]string, 0, len(scores))
	for nb := range scores {
		ranked = append(ranked, nb)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if scores[ranked[i]] != scores[ranked[j]] {
			return scores[ranked[i]] > scores[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	if len(ranked) > x.opt.TopF {
		ranked = ranked[:x.opt.TopF]
	}
	selTTL := ttl
	if maxHops > 0 {
		need := uint64(math.Ceil(maxHops)) + 1 // one hop of slack
		if need < uint64(selTTL) {
			selTTL = uint8(need)
		}
	}
	return Plan{Targets: ranked, TTL: selTTL, Selective: true}
}

// Terms returns how many term fingerprints the index currently tracks.
func (x *RoutingIndex) Terms() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.terms)
}

// Forget removes every learned counter attributed to neighbor across all
// terms — called when the neighbor departs or is dropped as dead, so a
// long-lived node under churn does not accumulate unbounded dead-neighbor
// state. Terms left with no scored neighbor are dropped entirely. It
// returns how many per-term counters were evicted.
func (x *RoutingIndex) Forget(neighbor string) int {
	if neighbor == "" {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	dropped := 0
	for t, ts := range x.terms {
		if _, ok := ts.vias[neighbor]; !ok {
			continue
		}
		delete(ts.vias, neighbor)
		dropped++
		if len(ts.vias) == 0 {
			delete(x.terms, t)
		}
	}
	return dropped
}
