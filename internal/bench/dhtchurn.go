package bench

import (
	"math/bits"
	"sort"
	"strconv"
	"time"

	"bestpeer/internal/chord"
	"bestpeer/internal/netsim"
)

// Mesh message kinds of the chord scheme, disjoint from the overlay
// family's cm* kinds.
const (
	cdLookup int32 = iota + 101
	cdAnswer
	cdPublish
	cdPing
)

const cdFinal = 1 << 8 // B flag: next delivery is to the key's owner

// chordScheme is the "chd" plug-in, the chord fleet on the churn driver:
// every node keys itself by name hash; successor lists and fingers are
// rebuilt each maintenance tick from the registry's (possibly stale)
// membership view — the same LIGLO-backed failure-detection window the
// other schemes live with. Keyword postings live at the keyword's owner,
// refreshed by a periodic republish, handed to the successor on graceful
// leave, and stranded by a crash until the next republish.
type chordScheme struct {
	d       *churnDriver
	p       DHTParams
	key     []chord.Key
	kwKey   []chord.Key
	succs   [][]int32
	fingers [][]int32
	// postings[node][kw] lists holders whose posting this node stores.
	postings [][][]int32
	// sorted scratch for rebuild: registry members in key order.
	sorted []int32
	skeys  []chord.Key
	// fingerFloor skips finger levels whose span is far below the mean
	// ring gap — they all resolve to the immediate successor anyway.
	fingerFloor int
}

func newChordScheme(d *churnDriver, p DHTParams) *chordScheme {
	n := d.p.Nodes
	c := &chordScheme{
		d: d, p: p,
		key:      make([]chord.Key, n),
		kwKey:    make([]chord.Key, d.p.Keywords),
		succs:    make([][]int32, n),
		fingers:  make([][]int32, n),
		postings: make([][][]int32, n),
	}
	for i := range c.key {
		c.key[i] = chord.HashString("n" + strconv.Itoa(i))
	}
	for kw := range c.kwKey {
		c.kwKey[kw] = chord.HashString(churnKeyword(kw))
	}
	c.fingerFloor = max(0, chord.Bits-bits.Len(uint(n-1))-4)
	return c
}

// start converges everyone's tables, like the other schemes' initial
// overlays, and installs the initial postings directly at their owners:
// the index predates the measurement window.
func (c *chordScheme) start() {
	c.tick()
	n := len(c.sorted)
	for kw, holders := range c.d.byKw {
		j := sort.Search(n, func(i int) bool { return c.skeys[i] >= c.kwKey[kw] })
		if j == n {
			j = 0
		}
		for _, h := range holders {
			c.store(c.sorted[j], kw, h)
		}
	}
}

// tick refreshes every alive member's successor list and fingers from
// the registry's current view, charging the maintenance pings that a
// live ring would spend to arrive at the same state. Crashed-but-not-
// swept members stay in the view as *targets* — the staleness neighbors
// route into until the sweep.
func (c *chordScheme) tick() {
	mesh := c.d.mesh
	c.sorted = append(c.sorted[:0], c.d.reg.list...)
	sort.Slice(c.sorted, func(i, j int) bool { return c.key[c.sorted[i]] < c.key[c.sorted[j]] })
	c.skeys = c.skeys[:0]
	for _, id := range c.sorted {
		c.skeys = append(c.skeys, c.key[id])
	}
	n := len(c.sorted)
	if n == 0 {
		return
	}
	// Each tick pings successors and finger extremes, so by the next
	// rebuild every target that died before the previous tick has been
	// condemned: the rebuilt tables skip currently-dead nodes. Deaths
	// since the last tick — and crashed members the registry has not
	// swept yet showing up as *candidates* — remain the staleness the
	// routing pays for.
	aliveAt := func(j int) (int32, bool) {
		for step := 0; step < n; step++ {
			if cand := c.sorted[(j+step)%n]; mesh.Alive(cand) {
				return cand, true
			}
		}
		return 0, false
	}
	for pos, id := range c.sorted {
		if !mesh.Alive(id) {
			continue // a corpse maintains nothing
		}
		succs := c.succs[id][:0]
		for step := 1; step < n && len(succs) < c.p.SuccLen; step++ {
			if cand := c.sorted[(pos+step)%n]; mesh.Alive(cand) {
				succs = append(succs, cand)
			}
		}
		c.succs[id] = succs
		fingers := c.fingers[id][:0]
		for lvl := c.fingerFloor; lvl < chord.Bits; lvl++ {
			target := c.key[id] + chord.Key(1)<<uint(lvl)
			j := sort.Search(n, func(i int) bool { return c.skeys[i] >= target })
			if j == n {
				j = 0
			}
			f, ok := aliveAt(j)
			if !ok || f == id || (len(fingers) > 0 && fingers[len(fingers)-1] == f) {
				continue
			}
			fingers = append(fingers, f)
		}
		c.fingers[id] = fingers
		// Maintenance traffic: one ping per successor plus the finger
		// extremes — the liveness checks a running ring pays each tick.
		for _, s := range succs {
			mesh.Send(s, netsim.MeshMsg{From: id, Kind: cdPing})
		}
		if len(fingers) > 0 {
			mesh.Send(fingers[0], netsim.MeshMsg{From: id, Kind: cdPing})
			mesh.Send(fingers[len(fingers)-1], netsim.MeshMsg{From: id, Kind: cdPing})
		}
	}
}

// nextHop picks the routing step for key t at node v: deliver to the
// immediate successor when it owns t, otherwise the closest preceding
// finger (then successor) — the chord rule over the model's tables.
func (c *chordScheme) nextHop(v int32, t chord.Key) (next int32, final, ok bool) {
	succs := c.succs[v]
	if len(succs) == 0 {
		return 0, false, false
	}
	s0 := succs[0]
	if chord.BetweenRightIncl(c.key[v], t, c.key[s0]) {
		return s0, true, true
	}
	for i := len(c.fingers[v]) - 1; i >= 0; i-- {
		if f := c.fingers[v][i]; chord.Between(c.key[v], c.key[f], t) {
			return f, false, true
		}
	}
	for i := len(succs) - 1; i >= 0; i-- {
		if s := succs[i]; chord.Between(c.key[v], c.key[s], t) {
			return s, false, true
		}
	}
	return s0, false, true
}

// forward takes one routing step for a lookup (kind cdLookup, A = qid)
// or a publish (kind cdPublish, A = holder<<4 | kw).
func (c *chordScheme) forward(v int32, kind, a int32, t chord.Key, hops int) {
	if hops >= c.p.ChordTTL {
		return
	}
	next, final, ok := c.nextHop(v, t)
	if !ok {
		return
	}
	b := int32(hops + 1)
	if final {
		b |= cdFinal
	}
	c.d.mesh.Send(next, netsim.MeshMsg{From: v, Kind: kind, A: a, B: b})
}

func (c *chordScheme) query(q *churnQuery) (int, bool) {
	c.forward(q.base, cdLookup, q.id, c.kwKey[q.kw], 0)
	return 0, false
}

func (c *chordScheme) closed(*churnQuery) {}

func (c *chordScheme) handle(to int32, msg netsim.MeshMsg) {
	switch msg.Kind {
	case cdLookup:
		q := c.d.queries[msg.A-1]
		if q.closed {
			return
		}
		hops := int(msg.B &^ cdFinal)
		if msg.B&cdFinal == 0 {
			c.forward(to, cdLookup, msg.A, c.kwKey[q.kw], hops)
			return
		}
		// This node owns the key: answer with the posted holders that
		// are alive right now.
		cnt := int32(0)
		if ps := c.postings[to]; ps != nil {
			for _, h := range ps[q.kw] {
				if c.d.mesh.Alive(h) {
					cnt++
				}
			}
		}
		c.d.mesh.Send(q.base, netsim.MeshMsg{From: to, Kind: cdAnswer, A: msg.A, B: int32(hops), C: cnt})
	case cdAnswer:
		c.d.queries[msg.A-1].credit(int(msg.C), int(msg.B))
	case cdPublish:
		// A packs holder<<4 | keyword, which caps the model at 16
		// keywords — double the committed configuration.
		kw := int(msg.A & 0xf)
		holder := msg.A >> 4
		hops := int(msg.B &^ cdFinal)
		if msg.B&cdFinal == 0 {
			c.forward(to, cdPublish, msg.A, c.kwKey[kw], hops)
			return
		}
		c.store(to, kw, holder)
	case cdPing:
		// Pure maintenance cost; the registry is the failure detector.
	}
}

// store indexes holder under kw at node `to`, deduplicating.
func (c *chordScheme) store(to int32, kw int, holder int32) {
	if c.postings[to] == nil {
		c.postings[to] = make([][]int32, len(c.kwKey))
	}
	for _, h := range c.postings[to][kw] {
		if h == holder {
			return
		}
	}
	c.postings[to][kw] = append(c.postings[to][kw], holder)
}

// background is the republish: every alive holder re-routes its posting
// toward the current owner — the index's self-repair after ownership
// shifts and crashes.
func (c *chordScheme) background() (time.Duration, func()) {
	return c.p.RepublishEvery, func() {
		for kw, holders := range c.d.byKw {
			for _, h := range holders {
				if c.d.mesh.Alive(h) {
					c.forward(h, cdPublish, h<<4|int32(kw), c.kwKey[kw], 0)
				}
			}
		}
	}
}

// join: a fresh process has no routing state (until the next tick) and
// no stored postings.
func (c *chordScheme) join(node int32) {
	c.succs[node] = c.succs[node][:0]
	c.fingers[node] = c.fingers[node][:0]
	c.postings[node] = nil
}

// leave hands the stored postings to the first alive successor. A crash
// strands them instead, until the holders republish.
func (c *chordScheme) leave(node int32) {
	ps := c.postings[node]
	c.postings[node] = nil
	if ps == nil {
		return
	}
	for _, heir := range c.succs[node] {
		if !c.d.mesh.Alive(heir) {
			continue
		}
		for kw, holders := range ps {
			for _, h := range holders {
				c.d.mesh.Send(heir, netsim.MeshMsg{
					From: node, Kind: cdPublish,
					A: h<<4 | int32(kw), B: 1 | cdFinal,
				})
			}
		}
		c.d.run.DepartsDelivered++
		return
	}
}
