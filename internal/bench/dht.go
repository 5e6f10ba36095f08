package bench

import (
	"math"
	"sort"
	"strconv"
	"time"

	"bestpeer/internal/chord"
	"bestpeer/internal/netsim"
	"bestpeer/internal/wire"
)

// DHTParams configures the T4 experiment: the chord DHT ("chd") against
// flooding and reconfigurable BestPeer on exact-key and keyword
// workloads, first over a converged static network with real wire
// frames, then under the 10k-node churn trace of the C1 experiment.
type DHTParams struct {
	// Nodes sizes the static network; SuccLen the chord successor lists.
	Nodes   int
	SuccLen int
	// Keys is the exact-key workload: that many distinct single-owner
	// keys, each looked up once from a rotating base.
	Keys int
	// Keywords × HoldersPerKeyword is the keyword workload.
	// PublishedFrac of each keyword's holders publish into the DHT index
	// — the structural handicap of exact-match DHTs on keyword search:
	// unpublished holders are invisible to chord but still reachable by
	// a flood. KeywordQueries are issued round-robin over the keywords.
	Keywords          int
	HoldersPerKeyword int
	PublishedFrac     float64
	KeywordQueries    int
	// Degree and TTL shape the flood overlay (ring + random chords) and
	// its hop budget; ChordTTL bounds chord routing against table bugs.
	Degree   int
	TTL      int
	ChordTTL int
	// Latency is the per-hop link latency of the static network.
	Latency time.Duration
	// RepublishEvery is the churn model's index-refresh cadence: every
	// alive holder re-routes its posting toward the current key owner.
	RepublishEvery time.Duration
	// Churn configures the shared churn trace; the bpr and flood
	// baselines run the C1 model on it unchanged.
	Churn ChurnParams
}

// DefaultDHTParams is the committed-figure configuration.
func DefaultDHTParams() DHTParams {
	return DHTParams{
		Nodes: 64, SuccLen: 8, Keys: 128,
		Keywords: 8, HoldersPerKeyword: 6, PublishedFrac: 0.75,
		KeywordQueries: 32,
		Degree:         4, TTL: 10, ChordTTL: 32,
		Latency:        10 * time.Millisecond,
		RepublishEvery: 5 * time.Second,
		Churn:          DefaultChurnParams(),
	}
}

// DHTStaticRun is one (scheme, workload) cell of the static comparison.
type DHTStaticRun struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"` // "exact" or "keyword"
	Lookups  int    `json:"lookups"`
	// Recall is mean fraction of reachable answers found; MeanHops the
	// mean overlay depth of answered lookups.
	Recall   float64 `json:"recall"`
	MeanHops float64 `json:"mean_hops"`
	// Msgs / Bytes total the real wire frames the scheme put on the
	// simulated network, index maintenance (chord publishes, BPR's
	// warm-up flood) included.
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
}

// DHTResult is the T4 experiment's machine-readable output.
type DHTResult struct {
	Nodes int `json:"nodes"`
	// HopBound is the acceptance ceiling on chord exact-key routing:
	// ceil(log2 Nodes) + 1.
	HopBound   int            `json:"hop_bound"`
	Static     []DHTStaticRun `json:"static"`
	ChurnNodes int            `json:"churn_nodes"`
	// Churn holds the chd run plus the bpr and flood baselines on the
	// same trace.
	Churn []ChurnSchemeRun `json:"churn"`
}

// StaticRun returns the named static cell, or nil.
func (r *DHTResult) StaticRun(scheme, wl string) *DHTStaticRun {
	for i := range r.Static {
		if r.Static[i].Scheme == scheme && r.Static[i].Workload == wl {
			return &r.Static[i]
		}
	}
	return nil
}

// ChurnRun returns the named churn run, or nil.
func (r *DHTResult) ChurnRun(scheme string) *ChurnSchemeRun {
	for i := range r.Churn {
		if r.Churn[i].Scheme == scheme {
			return &r.Churn[i]
		}
	}
	return nil
}

// dhtHopBound is the textbook chord guarantee the acceptance test pins:
// with exact fingers a lookup takes at most ceil(log2 N) halving steps,
// plus the final delivery hop.
func dhtHopBound(nodes int) int {
	return int(math.Ceil(math.Log2(float64(nodes)))) + 1
}

// dhtStaticBases is how many nodes rotate as static-workload query
// bases; holders are placed outside this prefix.
const dhtStaticBases = 8

// dhtPlan is the workload placement shared by every static scheme so
// their numbers compare the protocols, not the draw: exact keys with
// their owning node, keyword holder sets, the published subset, and the
// flood overlay.
type dhtPlan struct {
	names     []string
	exactKeys []string
	exactBase []int
	kwHolders [][]int
	published [][]int // prefix of kwHolders, PublishedFrac of each
	adj       [][]int
}

func newDHTPlan(p DHTParams, seed int64) *dhtPlan {
	rng := netsim.NewSimSeeded(seed).Rand()
	plan := &dhtPlan{names: make([]string, p.Nodes)}
	for i := range plan.names {
		plan.names[i] = "n" + strconv.Itoa(i)
	}
	for i := 0; i < p.Keys; i++ {
		plan.exactKeys = append(plan.exactKeys, "key-"+strconv.Itoa(i))
		plan.exactBase = append(plan.exactBase, (i*13+1)%p.Nodes)
	}
	// Keyword holders are drawn from [dhtStaticBases, Nodes) so the
	// rotating query bases never answer their own queries.
	plan.kwHolders = make([][]int, p.Keywords)
	plan.published = make([][]int, p.Keywords)
	taken := make([]bool, p.Nodes)
	for kw := 0; kw < p.Keywords; kw++ {
		for len(plan.kwHolders[kw]) < p.HoldersPerKeyword {
			j := dhtStaticBases + rng.Intn(p.Nodes-dhtStaticBases)
			if !taken[j] {
				taken[j] = true
				plan.kwHolders[kw] = append(plan.kwHolders[kw], j)
			}
		}
		np := min(p.HoldersPerKeyword, int(math.Ceil(p.PublishedFrac*float64(p.HoldersPerKeyword))))
		plan.published[kw] = plan.kwHolders[kw][:np]
	}
	// Flood overlay: a ring (guaranteed connectivity) plus random
	// chords up to the target degree.
	plan.adj = make([][]int, p.Nodes)
	addEdge := func(i, j int) {
		if i == j {
			return
		}
		for _, nb := range plan.adj[i] {
			if nb == j {
				return
			}
		}
		plan.adj[i] = append(plan.adj[i], j)
		plan.adj[j] = append(plan.adj[j], i)
	}
	for i := 0; i < p.Nodes; i++ {
		addEdge(i, (i+1)%p.Nodes)
	}
	for i := 0; i < p.Nodes; i++ {
		for len(plan.adj[i]) < p.Degree {
			addEdge(i, rng.Intn(p.Nodes))
		}
	}
	return plan
}

// dhtNet is one static scheme run's metered fabric: every host exists,
// message and byte counters tick at Send time, and routing decisions are
// made by the scheme code against converged state — the network charges
// the traffic, the tables decide it.
type dhtNet struct {
	sim *netsim.Sim
	nw  *netsim.Network
}

func newDHTNet(p DHTParams, names []string, seed int64) *dhtNet {
	sim := netsim.NewSimSeeded(seed)
	nw := netsim.NewNetwork(sim, netsim.Link{Latency: p.Latency})
	for _, name := range names {
		nw.AddHost(name, netsim.HostConfig{})
	}
	return &dhtNet{sim: sim, nw: nw}
}

// gnuQueryEnv frames a flood query for term exactly as the Gnutella
// scheme puts it on the wire.
func gnuQueryEnv(term string) *wire.Envelope {
	var e wire.Encoder
	e.String(term)
	return &wire.Envelope{Kind: wire.KindGnuQuery, ID: wire.NewMsgID(), TTL: 1, Body: e.Bytes()}
}

// gnuHitEnv frames a query-hit answer from a holder.
func gnuHitEnv(holder string) *wire.Envelope {
	var e wire.Encoder
	e.String(holder)
	return &wire.Envelope{Kind: wire.KindGnuQueryHit, ID: wire.NewMsgID(), TTL: 1, Body: e.Bytes()}
}

// chordTables builds the converged routing state and an address index
// over it.
func chordTables(p DHTParams, names []string) (ring []*chord.Table, byAddr map[string]*chord.Table) {
	ring = chord.ConvergedTables(names, p.SuccLen)
	byAddr = make(map[string]*chord.Table, len(ring))
	for _, tb := range ring {
		byAddr[tb.Self().Addr] = tb
	}
	return ring, byAddr
}

// ownerOf returns the ring position owning k: the first table whose key
// is ≥ k, wrapping to the ring's first node.
func ownerOf(ring []*chord.Table, k chord.Key) *chord.Table {
	i := sort.Search(len(ring), func(i int) bool { return ring[i].Self().Key >= k })
	if i == len(ring) {
		i = 0
	}
	return ring[i]
}

// routeChord walks one lookup for k from `from` through the converged
// tables, sending the real KindChordLookup frame on every forwarding
// step. It returns the owning node and the hop count.
func routeChord(n *dhtNet, byAddr map[string]*chord.Table, from string, k chord.Key, ttl int) (owner chord.NodeRef, hops int, ok bool) {
	cur := byAddr[from]
	for hops = 0; hops <= ttl; {
		if cur.Owns(k) {
			return cur.Self(), hops, true
		}
		next, hop, done := cur.NextHop(k, nil)
		if !done {
			next = hop
		}
		n.nw.Send(cur.Self().Addr, next.Addr, chord.LookupEnvelope(k, hops), 0)
		hops++
		cur = byAddr[next.Addr]
	}
	return chord.NodeRef{}, hops, false
}

// floodQuery floods term from base over the overlay, sending every
// forwarded copy and every answer as a real frame. It returns the set of
// matching nodes reached and the sum of their depths.
func floodQuery(n *dhtNet, p DHTParams, plan *dhtPlan, base int, term string, matches func(node int) bool) (answers, depthSum int) {
	env := gnuQueryEnv(term)
	type hop struct{ node, from, depth int }
	visited := make([]bool, p.Nodes)
	queue := []hop{{base, -1, 0}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if visited[h.node] {
			continue
		}
		visited[h.node] = true
		if h.node != base && matches(h.node) {
			answers++
			depthSum += h.depth
			n.nw.Send(plan.names[h.node], plan.names[base], gnuHitEnv(plan.names[h.node]), 0)
		}
		if h.depth >= p.TTL {
			continue
		}
		for _, nb := range plan.adj[h.node] {
			if nb == h.from {
				continue
			}
			n.nw.Send(plan.names[h.node], plan.names[nb], env, 0)
			queue = append(queue, hop{nb, h.node, h.depth + 1})
		}
	}
	return answers, depthSum
}

// runDHTStatic produces every (scheme, workload) cell. Each cell runs on
// a fresh network so its counters isolate that scheme's traffic.
func runDHTStatic(p DHTParams, plan *dhtPlan, seed int64) []DHTStaticRun {
	var out []DHTStaticRun
	for _, scheme := range []string{"chd", "flood", "bpr"} {
		out = append(out, dhtStaticExact(p, plan, scheme, seed))
		out = append(out, dhtStaticKeyword(p, plan, scheme, seed))
	}
	return out
}

func finishStatic(n *dhtNet, run DHTStaticRun, recallSum float64, hopSum, answered int) DHTStaticRun {
	n.sim.Run() // drain in-flight deliveries; counters were charged at Send
	if run.Lookups > 0 {
		run.Recall = recallSum / float64(run.Lookups)
	}
	if answered > 0 {
		run.MeanHops = float64(hopSum) / float64(answered)
	}
	run.Msgs = n.nw.MsgsSent
	run.Bytes = n.nw.BytesSent
	return run
}

// dhtStaticExact: each key lives on exactly one node — its chord owner,
// so every scheme hunts the same host. Chord routes; flood searches;
// BPR's learned routing has nothing to learn from keys that never
// repeat, so it floods exactly like the reference.
func dhtStaticExact(p DHTParams, plan *dhtPlan, scheme string, seed int64) DHTStaticRun {
	n := newDHTNet(p, plan.names, seed)
	run := DHTStaticRun{Scheme: scheme, Workload: "exact", Lookups: len(plan.exactKeys)}
	ring, byAddr := chordTables(p, plan.names)
	nameIdx := make(map[string]int, len(plan.names))
	for i, name := range plan.names {
		nameIdx[name] = i
	}
	recallSum := 0.0
	hopSum, answered := 0, 0
	for i, keyName := range plan.exactKeys {
		k := chord.HashString(keyName)
		holder := nameIdx[ownerOf(ring, k).Self().Addr]
		base := plan.exactBase[i]
		switch scheme {
		case "chd":
			owner, hops, ok := routeChord(n, byAddr, plan.names[base], k, p.ChordTTL)
			if !ok {
				continue
			}
			if owner.Addr != plan.names[base] {
				n.nw.Send(owner.Addr, plan.names[base], chord.LookupOKEnvelope(owner, hops), 0)
			}
			recallSum++
			hopSum += hops
			answered++
		default: // flood and bpr are identical on never-repeating keys
			if base == holder {
				recallSum++ // local data: answered before any message
				answered++
				continue
			}
			ans, depths := floodQuery(n, p, plan, base, keyName, func(node int) bool { return node == holder })
			if ans > 0 {
				recallSum++
				hopSum += depths
				answered += ans
			}
		}
	}
	return finishStatic(n, run, recallSum, hopSum, answered)
}

// dhtStaticKeyword: keywords have many holders, only PublishedFrac of
// which publish into the chord index. Chord answers from the index
// (cheap, partial); flood reaches every holder (expensive, complete);
// BPR floods once per keyword, learns the holder set, then goes direct —
// complete *and* cheap on repeats. This is the paper-side trade the
// acceptance test pins: keyword workloads still favor BPR.
func dhtStaticKeyword(p DHTParams, plan *dhtPlan, scheme string, seed int64) DHTStaticRun {
	n := newDHTNet(p, plan.names, seed)
	run := DHTStaticRun{Scheme: scheme, Workload: "keyword", Lookups: p.KeywordQueries}
	_, byAddr := chordTables(p, plan.names)
	holds := func(kw, node int) bool {
		for _, h := range plan.kwHolders[kw] {
			if h == node {
				return true
			}
		}
		return false
	}

	if scheme == "chd" {
		// Publish phase: every published holder routes its posting to
		// the keyword's owner, then stores it there with one direct
		// frame — the DHT put.
		for kw := range plan.published {
			k := chord.HashString(churnKeyword(kw))
			for _, h := range plan.published[kw] {
				owner, _, ok := routeChord(n, byAddr, plan.names[h], k, p.ChordTTL)
				if ok && owner.Addr != plan.names[h] {
					n.nw.Send(plan.names[h], owner.Addr, gnuHitEnv(plan.names[h]), 0)
				}
			}
		}
	}

	learned := make([][]int, p.Keywords) // bpr: holder sets from the warm-up flood
	recallSum := 0.0
	hopSum, answered := 0, 0
	for q := 0; q < p.KeywordQueries; q++ {
		kw := q % p.Keywords
		base := q % dhtStaticBases
		denom := len(plan.kwHolders[kw])
		switch scheme {
		case "chd":
			k := chord.HashString(churnKeyword(kw))
			owner, hops, ok := routeChord(n, byAddr, plan.names[base], k, p.ChordTTL)
			if !ok {
				continue
			}
			n.nw.Send(owner.Addr, plan.names[base], chord.LookupOKEnvelope(owner, hops), 0)
			recallSum += float64(len(plan.published[kw])) / float64(denom)
			hopSum += hops
			answered++
		case "flood":
			ans, depths := floodQuery(n, p, plan, base, churnKeyword(kw), func(node int) bool { return holds(kw, node) })
			recallSum += float64(ans) / float64(denom)
			hopSum += depths
			answered += ans
		case "bpr":
			if learned[kw] == nil {
				ans, depths := floodQuery(n, p, plan, base, churnKeyword(kw), func(node int) bool { return holds(kw, node) })
				recallSum += float64(ans) / float64(denom)
				hopSum += depths
				answered += ans
				learned[kw] = plan.kwHolders[kw]
				continue
			}
			env := gnuQueryEnv(churnKeyword(kw))
			for _, h := range learned[kw] {
				n.nw.Send(plan.names[base], plan.names[h], env, 0)
				n.nw.Send(plan.names[h], plan.names[base], gnuHitEnv(plan.names[h]), 0)
				hopSum++
				answered++
			}
			recallSum += float64(len(learned[kw])) / float64(denom)
		}
	}
	return finishStatic(n, run, recallSum, hopSum, answered)
}

// DHT runs the full T4 experiment: the static comparison plus the churn
// runs (chd against the bpr and flood baselines on the same trace).
func DHT(p DHTParams, seed int64) *DHTResult {
	plan := newDHTPlan(p, seed)
	return &DHTResult{
		Nodes:      p.Nodes,
		HopBound:   dhtHopBound(p.Nodes),
		Static:     runDHTStatic(p, plan, seed),
		ChurnNodes: p.Churn.Nodes,
		Churn: []ChurnSchemeRun{
			runChurnScheme(p.Churn, "chd", seed, func(d *churnDriver) churnScheme { return newChordScheme(d, p) }),
			runChurnScheme(p.Churn, "bpr", seed, newReconfigOverlay),
			runChurnScheme(p.Churn, "flood", seed, newFloodOverlay),
		},
	}
}

// FigDHT renders the T4 figures: per-scheme messages on each static
// workload, and the recall-under-churn timeline with chd alongside the
// C1 baselines.
func FigDHT(p DHTParams, seed int64) ([]*Figure, *DHTResult) {
	res := DHT(p, seed)
	msgs := &Figure{
		ID:     "T4",
		Title:  "DHT vs flood vs BPR: messages per lookup (" + strconv.Itoa(p.Nodes) + " nodes; x=1 exact, x=2 keyword)",
		XLabel: "workload", YLabel: "messages per lookup",
	}
	for _, scheme := range []string{"chd", "flood", "bpr"} {
		s := Series{Name: scheme}
		for wi, wl := range []string{"exact", "keyword"} {
			if run := res.StaticRun(scheme, wl); run != nil && run.Lookups > 0 {
				s.Points = append(s.Points, Point{float64(wi + 1), float64(run.Msgs) / float64(run.Lookups)})
			}
		}
		msgs.Series = append(msgs.Series, s)
	}
	churn := churnRecallFigure("T4c", "Recall under churn with chord", p.Churn, res.Churn)
	return []*Figure{msgs, churn}, res
}
