package bench

import (
	"sort"
	"strconv"
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/qroute"
)

// Mesh message kinds of the unstructured-overlay schemes.
const (
	cmQuery int32 = iota + 1
	cmAnswer
	cmProbe
	cmProbeOK
	cmDepart
)

// ansRec is one attributed answer (for routing-index feedback).
type ansRec struct{ holder, first, hops int32 }

// overlayQuery is the overlay family's per-query state.
type overlayQuery struct {
	// visited is a per-node dedup bitset: queries run concurrently, so a
	// shared last-qid stamp would thrash and re-process.
	visited []uint64
	// recs keeps the attributed answers the base's engine (when it has
	// one) learns from as the round closes.
	recs []ansRec
}

func (q *overlayQuery) visit(node int32) bool {
	w, b := node>>6, uint(node&63)
	if q.visited[w]&(1<<b) != 0 {
		return false
	}
	q.visited[w] |= 1 << b
	return true
}

// overlay is the unstructured-overlay family on the churn driver:
// integer-indexed adjacency, TTL-bounded flooding with out-of-network
// answers, graceful Depart notices, and a probe/backfill repair loop. On
// its own it is the "flood" plug-in — repair loop, every query floods:
// the recall reference. The other two wrap it:
//
//   - staticOverlay ("bps"): Departs remove edges but nothing probes or
//     backfills, so the overlay erodes under churn,
//   - reconfigOverlay ("bpr"): adds Depart replacement hints plus a real
//     qroute engine per base — answer cache and learned selective routing.
type overlay struct {
	d     *churnDriver
	adj   [][]int32
	stamp [][]int32 // probe round per edge, parallel to adj
	// hint is a stashed Depart replacement hint per node (-1: none) and
	// engines the per-base qroute engines; only reconfigOverlay fills
	// either, the repair loop just honors what it finds.
	hint       []int32
	engines    []*qroute.Engine
	names      []string
	probeRound int32
}

// newOverlay draws the random overlay at target mean degree: every node
// initiates Degree/2 edges, each mirrored by a back edge.
func newOverlay(d *churnDriver) *overlay {
	n := d.p.Nodes
	o := &overlay{d: d, adj: make([][]int32, n), stamp: make([][]int32, n), hint: make([]int32, n)}
	for i := range o.hint {
		o.hint[i] = -1
	}
	rng := d.sim.Rand()
	half := max(1, d.p.Degree/2)
	for i := 0; i < n; i++ {
		for k := 0; k < half; k++ {
			j := int32(rng.Intn(n))
			if j != int32(i) && !o.hasEdge(int32(i), j) {
				o.addEdge(int32(i), j)
			}
		}
	}
	return o
}

func newFloodOverlay(d *churnDriver) churnScheme { return newOverlay(d) }

func (o *overlay) engineOf(node int32) *qroute.Engine {
	if int(node) < len(o.engines) { // bases are nodes [0, Bases)
		return o.engines[node]
	}
	return nil
}

func (o *overlay) hasEdge(i, j int32) bool {
	for _, nb := range o.adj[i] {
		if nb == j {
			return true
		}
	}
	return false
}

// addEdge links i->j (and the back edge, degree cap permitting, while j
// is alive to maintain it).
func (o *overlay) addEdge(i, j int32) {
	o.adj[i] = append(o.adj[i], j)
	o.stamp[i] = append(o.stamp[i], 0)
	if o.d.mesh.Alive(j) && len(o.adj[j]) < 2*o.d.p.Degree && !o.hasEdge(j, i) {
		o.adj[j] = append(o.adj[j], i)
		o.stamp[j] = append(o.stamp[j], 0)
	}
}

func (o *overlay) removeAt(i int32, idx int) {
	last := len(o.adj[i]) - 1
	o.adj[i][idx] = o.adj[i][last]
	o.stamp[i][idx] = o.stamp[i][last]
	o.adj[i] = o.adj[i][:last]
	o.stamp[i] = o.stamp[i][:last]
}

func (o *overlay) removeNeighbor(i, j int32) {
	for idx, nb := range o.adj[i] {
		if nb == j {
			o.removeAt(i, idx)
			return
		}
	}
}

func (o *overlay) start() {}

func (o *overlay) background() (time.Duration, func()) { return 0, nil }

func (o *overlay) closed(*churnQuery) {}

// handle dispatches one delivered mesh message. Query payload packing:
// A = qid, B = remaining TTL (low byte) | depth (rest), C = origin (low
// 16 bits) | first-hop neighbor (rest) — which caps the model at 32k
// nodes, comfortably above the 10k target.
func (o *overlay) handle(to int32, msg netsim.MeshMsg) {
	mesh := o.d.mesh
	switch msg.Kind {
	case cmQuery:
		q := o.d.queries[msg.A-1]
		if !q.ext.(*overlayQuery).visit(to) {
			return
		}
		ttl := msg.B & 0xff
		depth := msg.B >> 8
		if int(o.d.holdKw[to]) == q.kw {
			// Answers return out-of-network: straight back to the base.
			mesh.Send(msg.C&0xffff, netsim.MeshMsg{
				From: to, Kind: cmAnswer, A: msg.A, B: depth, C: msg.C >> 16,
			})
		}
		if ttl > 1 {
			fwd := netsim.MeshMsg{
				From: to, Kind: cmQuery, A: msg.A,
				B: (ttl - 1) | (depth+1)<<8, C: msg.C,
			}
			for _, nb := range o.adj[to] {
				if nb != msg.From {
					mesh.Send(nb, fwd)
				}
			}
		}
	case cmAnswer:
		q := o.d.queries[msg.A-1]
		if q.credit(1, int(msg.B)) && o.engines != nil {
			oq := q.ext.(*overlayQuery)
			oq.recs = append(oq.recs, ansRec{holder: msg.From, first: msg.C, hops: msg.B})
		}
	case cmProbe:
		mesh.Send(msg.From, netsim.MeshMsg{From: to, Kind: cmProbeOK, A: msg.A})
	case cmProbeOK:
		for idx, nb := range o.adj[to] {
			if nb == msg.From {
				if o.stamp[to][idx] == msg.A {
					o.stamp[to][idx] = 0
				}
				return
			}
		}
	case cmDepart:
		o.removeNeighbor(to, msg.From)
		o.d.run.DepartsDelivered++
	}
}

// join wires a fresh process to Degree registry samples.
func (o *overlay) join(node int32) {
	o.adj[node] = o.adj[node][:0]
	o.stamp[node] = o.stamp[node][:0]
	o.hint[node] = -1
	for k := 0; k < o.d.p.Degree; k++ {
		if j, ok := o.d.reg.Sample(o.d.sim.Rand(), node); ok && !o.hasEdge(node, j) {
			o.addEdge(node, j)
		}
	}
}

// leave sends every neighbor a Depart carrying a rotating replacement
// hint drawn from the leaver's other neighbors.
func (o *overlay) leave(node int32) {
	nbs := o.adj[node]
	for i, nb := range nbs {
		h := int32(-1)
		if len(nbs) > 1 {
			h = nbs[(i+1)%len(nbs)]
		}
		o.d.mesh.Send(nb, netsim.MeshMsg{From: node, Kind: cmDepart, A: h})
	}
	o.adj[node] = o.adj[node][:0]
	o.stamp[node] = o.stamp[node][:0]
}

// tick starts one repair round: every live node probes each direct peer;
// reap collects the silence after ProbeTimeout.
func (o *overlay) tick() {
	o.probeRound++
	r := o.probeRound
	for i := range o.adj {
		ii := int32(i)
		if !o.d.mesh.Alive(ii) {
			continue
		}
		for idx, nb := range o.adj[i] {
			o.stamp[i][idx] = r
			o.d.mesh.Send(nb, netsim.MeshMsg{From: ii, Kind: cmProbe, A: r})
		}
	}
	o.d.sim.After(o.d.p.ProbeTimeout, func() { o.reap(r) })
}

// reap drops every edge whose round-r probe went unanswered, then
// backfills toward the target degree: stashed Depart hint first, then a
// registry sample.
func (o *overlay) reap(r int32) {
	for i := range o.adj {
		ii := int32(i)
		if !o.d.mesh.Alive(ii) {
			continue
		}
		for idx := len(o.adj[i]) - 1; idx >= 0; idx-- {
			if o.stamp[i][idx] != r {
				continue
			}
			dead := o.adj[i][idx]
			o.removeAt(ii, idx)
			if eng := o.engineOf(ii); eng != nil {
				eng.ForgetNeighbor(o.names[dead])
			}
		}
		for len(o.adj[i]) < o.d.p.Degree {
			j := o.hint[ii]
			o.hint[ii] = -1
			if j < 0 || j == ii || o.hasEdge(ii, j) {
				var ok bool
				j, ok = o.d.reg.Sample(o.d.sim.Rand(), ii)
				if !ok || o.hasEdge(ii, j) {
					break // retry next round
				}
			}
			o.addEdge(ii, j)
			o.d.run.Repairs++
		}
	}
}

// query floods q from its base at the full hop budget.
func (o *overlay) query(q *churnQuery) (int, bool) {
	o.fanOut(q, o.adj[q.base], int32(o.d.p.TTL))
	return 0, false
}

// fanOut sends q to the chosen direct peers of its base.
func (o *overlay) fanOut(q *churnQuery, targets []int32, ttl int32) {
	oq := &overlayQuery{visited: make([]uint64, (o.d.p.Nodes+63)/64)}
	q.ext = oq
	oq.visit(q.base)
	for _, nb := range targets {
		o.d.mesh.Send(nb, netsim.MeshMsg{
			From: q.base, Kind: cmQuery, A: q.id,
			B: ttl | 1<<8, C: q.base | nb<<16,
		})
	}
}

// staticOverlay is "bps": the overlay minus its repair loop.
type staticOverlay struct{ *overlay }

func newStaticOverlay(d *churnDriver) churnScheme { return staticOverlay{newOverlay(d)} }

func (staticOverlay) tick() {}

// reconfigOverlay is "bpr": the repaired overlay plus Depart hints and a
// qroute engine at every base.
type reconfigOverlay struct{ *overlay }

func newReconfigOverlay(d *churnDriver) churnScheme {
	o := newOverlay(d)
	o.names = make([]string, d.p.Nodes)
	for i := range o.names {
		o.names[i] = "n" + strconv.Itoa(i)
	}
	o.engines = make([]*qroute.Engine, d.p.Bases)
	for bi := range o.engines {
		o.engines[bi] = qroute.NewEngine(qroute.Options{
			Enable: true,
			Cache:  qroute.CacheOptions{TTL: 2 * d.p.SampleEvery},
			Route: qroute.RouteOptions{
				Epsilon:  -1, // deterministic message counts
				TopF:     4,
				MinScore: 2.0,
				Seed:     d.seed,
			},
		}, nil)
	}
	return reconfigOverlay{o}
}

// handle adds the reconfigurable node's reaction to a Depart: forget the
// leaver's routing evidence and adopt (or stash) its replacement hint.
func (o reconfigOverlay) handle(to int32, msg netsim.MeshMsg) {
	o.overlay.handle(to, msg)
	if msg.Kind != cmDepart {
		return
	}
	if eng := o.engineOf(to); eng != nil {
		eng.ForgetNeighbor(o.names[msg.From])
	}
	if h := msg.A; h >= 0 && h != to {
		if len(o.adj[to]) < o.d.p.Degree && !o.hasEdge(to, h) {
			o.addEdge(to, h)
			o.d.run.HintAdopts++
		} else if o.hint[to] < 0 {
			o.hint[to] = h
		}
	}
}

// query serves q from the base's answer cache when it can; otherwise the
// engine picks the direct peers and hop budget (a full flood until it has
// learned better).
func (o reconfigOverlay) query(q *churnQuery) (int, bool) {
	d := o.d
	eng, key, now := o.engines[q.base], churnKeyword(q.kw), d.simTime()
	d.run.CacheLookups++
	if val, neg, ok := eng.GetBase(key, now); ok && !neg {
		d.run.CacheHits++
		live := 0
		for _, h := range val.([]int32) {
			if d.mesh.Alive(h) {
				live++
			}
		}
		return live, true
	}
	targets := o.adj[q.base]
	nbNames := make([]string, len(targets))
	for i, nb := range targets {
		nbNames[i] = o.names[nb]
	}
	plan := eng.Select([]string{key}, nbNames, uint8(d.p.TTL), now)
	if plan.Selective {
		targets = make([]int32, 0, len(plan.Targets))
		for _, name := range plan.Targets {
			if id, err := strconv.Atoi(name[1:]); err == nil {
				targets = append(targets, int32(id))
			}
		}
	}
	o.fanOut(q, targets, int32(plan.TTL))
	return 0, false
}

// closed pushes one closed query's evidence into its base's engine:
// routing observations per answer, then the answer-cache fill.
func (o reconfigOverlay) closed(q *churnQuery) {
	recs := q.ext.(*overlayQuery).recs
	if len(recs) == 0 {
		return
	}
	eng, now := o.engines[q.base], o.d.simTime()
	terms := []string{churnKeyword(q.kw)}
	holders := make([]int32, 0, len(recs))
	var sites []string
	seenFirst := make(map[int32]bool)
	for _, rec := range recs {
		holders = append(holders, rec.holder)
		eng.Observe(terms, o.names[rec.first], 1, int(rec.hops), now)
		if !seenFirst[rec.first] {
			seenFirst[rec.first] = true
			sites = append(sites, o.names[rec.first])
		}
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
	eng.PutBaseFrom(terms[0], holders, 4*len(holders), false, eng.Epoch(), now, sites)
}
