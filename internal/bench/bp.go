package bench

import (
	"encoding/binary"
	"sort"
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/wire"
)

// bpSim is the simulated BestPeer protocol: agents cloned to all direct
// peers, duplicate suppression, class shipping on cold nodes, execution
// at the peer's site, and answers returned directly to the base. With a
// non-static strategy the base reconfigures between rounds (BPR); with
// reconfig.Static it is the paper's BPS.
type bpSim struct {
	p   params
	tp  *topology.Topology
	net *netsim.Network

	peers       [][]int // mutable copy of the adjacency (base's row changes)
	classReady  []bool
	wantQueued  [][]int  // per node: downstream nodes waiting for the class
	pendingHops []int    // per node: hop count of the agent parked for a class (-1 = none)
	pendingVia  []string // per node: entry neighbor of the parked agent

	// qr, when non-nil, is the base's answer cache + learned routing
	// index — the same engine a live node embeds. The simulation stamps
	// wire.QRoute on clones and result envelopes exactly like the live
	// message path, so routing is learned from the identical signal.
	qr *qroute.Engine

	// Per-round state.
	seen   []bool
	events []event
	baseAt string
	mark   trafficMark

	// journal, when set, receives the base node's structured events —
	// the same pipeline a live node feeds — so the convergence timeline
	// is assembled from events, not from simulator internals. qid is the
	// current round's query id, a function of the workload seed and the
	// count of rounds issued so that a report is a pure function of
	// -seed; strategyName tags query-issued events.
	journal      *obs.Journal
	rounds       uint64
	qid          string
	strategyName string
}

// resultBody encodes (hits, origin node) for simulated result messages.
func resultBody(hits, node int) []byte {
	var e wire.Encoder
	e.Uvarint(uint64(hits))
	e.Uvarint(uint64(node))
	return e.Bytes()
}

func resultFromBody(b []byte) (hits, node int) {
	d := wire.NewDecoder(b)
	return int(d.Uvarint()), int(d.Uvarint())
}

// nodeBody tags class-want messages with the requester index.
func nodeBody(i int) []byte {
	var e wire.Encoder
	e.Uvarint(uint64(i))
	return e.Bytes()
}

func nodeFromBody(b []byte) int {
	d := wire.NewDecoder(b)
	return int(d.Uvarint())
}

func newBPSim(tp *topology.Topology, p params) *bpSim {
	p = p.withDefaults()
	b := &bpSim{
		p: p, tp: tp,
		peers:      make([][]int, tp.N),
		classReady: make([]bool, tp.N),
		wantQueued: make([][]int, tp.N),
		baseAt:     nodeAddr(tp.Base),
	}
	b.net = newSimNet(tp, p.Cost, hostThreads, b.handle)
	for i := 0; i < tp.N; i++ {
		b.peers[i] = append([]int(nil), tp.Peers(i)...)
		b.classReady[i] = !p.ColdStart // standard classes ship with the node software
	}
	b.classReady[tp.Base] = true // the base originates the agent class
	b.qr = qroute.NewEngine(p.QRoute, nil)
	return b
}

// simTime maps the simulated clock onto a wall-clock timeline for the
// qroute engine, whose TTLs and decay half-lives are wall-clock based.
// The fixed origin keeps runs deterministic.
func (b *bpSim) simTime() time.Time {
	return time.Unix(0, 0).UTC().Add(b.net.Sim().Now())
}

// requestSize is the wire size of the travelling request: a full agent
// under code-shipping, a bare query under data-shipping.
func (b *bpSim) requestSize() int {
	if b.p.DataShip {
		return b.p.Cost.compressed(b.p.Cost.querySize)
	}
	return b.p.Cost.compressed(b.p.Cost.agentSize)
}

func (b *bpSim) handle(node int, env *wire.Envelope) {
	switch env.Kind {
	case wire.KindAgent:
		b.handleAgent(node, env)
	case wire.KindResult:
		if node == b.tp.Base {
			hits, origin := resultFromBody(env.Body)
			if env.QRoute != nil && env.QRoute.Via != "" {
				b.qr.Observe([]string{b.p.Query}, env.QRoute.Via, hits,
					int(env.Hops), b.simTime())
			}
			record := func() {
				b.events = append(b.events, event{
					Node:    origin,
					Answers: hits,
					Hops:    int(env.Hops),
					At:      b.net.Sim().Now() - b.mark.started,
				})
				b.journal.Append(obs.Event{
					Kind:  obs.EvAgentAnswered,
					Query: b.qid,
					Peer:  nodeAddr(origin),
					Hops:  int(env.Hops),
					Count: hits,
				})
			}
			if b.p.DataShip {
				// Data-shipping: the base must filter the shipped store
				// itself before the answers exist.
				b.net.Host(b.baseAt).Exec(b.p.Cost.scanCost(b.p.Spec.ObjectsPerNode), record)
			} else {
				record()
			}
		}
	case wire.KindClassWant:
		requester := nodeFromBody(env.Body)
		if b.classReady[node] {
			b.shipClass(node, requester)
		} else {
			b.wantQueued[node] = append(b.wantQueued[node], requester)
		}
	case wire.KindClassShip:
		b.installClass(node, env)
	}
}

func (b *bpSim) send(from, to int, kind wire.Kind, ttl, hops uint8, body []byte, size int) {
	env := &wire.Envelope{
		Kind: kind, ID: wire.NewMsgID(), TTL: ttl, Hops: hops,
		From: nodeAddr(from), To: nodeAddr(to), Body: body,
	}
	b.net.Send(nodeAddr(from), nodeAddr(to), env, size)
}

// handleAgent implements §3.1 at a simulated node.
func (b *bpSim) handleAgent(node int, env *wire.Envelope) {
	if env.Expired() {
		return // lifetime exhausted: the host drops the agent
	}
	if b.seen[node] {
		return
	}
	b.seen[node] = true

	// Clone-forward to direct peers except the previous hop (propagation
	// does not wait for class transfer or execution, but cloning and
	// enqueueing cost CPU at every intermediate host).
	var targets []int
	from := env.From
	for _, w := range b.peers[node] {
		if nodeAddr(w) != from {
			targets = append(targets, w)
		}
	}
	if len(targets) > 0 && env.TTL > 1 {
		host := b.net.Host(nodeAddr(node))
		host.Exec(b.p.Cost.ForwardCost, func() {
			for _, w := range targets {
				fwd := env.Forwarded(nodeAddr(node), nodeAddr(w))
				b.net.Send(nodeAddr(node), nodeAddr(w), fwd, b.requestSize())
			}
		})
	}

	via := ""
	if env.QRoute != nil {
		via = env.QRoute.Via
	}
	if !b.classReady[node] {
		// Ask the previous hop for the class, then execute on install.
		prev := nodeFromEnvAddr(env.From)
		b.send(node, prev, wire.KindClassWant, 1, 0, nodeBody(node), 64)
		// Remember this agent's hop count for execution after install.
		b.wantHops(node, int(env.Hops), via)
		return
	}
	b.execute(node, int(env.Hops), 0, via)
}

// wantHops stores the hop count and entry neighbor of the agent parked
// for a class.
func (b *bpSim) wantHops(node, hops int, via string) {
	for len(b.pendingHops) <= node {
		b.pendingHops = append(b.pendingHops, -1)
		b.pendingVia = append(b.pendingVia, "")
	}
	b.pendingHops[node] = hops
	b.pendingVia[node] = via
}

func (b *bpSim) shipClass(owner, requester int) {
	b.send(owner, requester, wire.KindClassShip, 1, 0, nil,
		b.p.Cost.compressed(b.p.Cost.classSize))
}

func (b *bpSim) installClass(node int, env *wire.Envelope) {
	if b.classReady[node] {
		return
	}
	b.classReady[node] = true
	// Serve queued downstream requests.
	for _, req := range b.wantQueued[node] {
		b.shipClass(node, req)
	}
	b.wantQueued[node] = nil
	if len(b.pendingHops) > node && b.pendingHops[node] >= 0 {
		hops, via := b.pendingHops[node], b.pendingVia[node]
		b.pendingHops[node] = -1
		b.pendingVia[node] = ""
		b.execute(node, hops, b.p.Cost.classInstall, via)
	}
}

// execute charges the agent reconstruction + scan on the node's CPU, then
// sends any answers directly to the base. In data-shipping mode the node
// does no filtering: it ships its whole store and the base does the work.
func (b *bpSim) execute(node, hops int, extra time.Duration, via string) {
	cost := b.p.Cost.AgentStartup + extra + b.p.Cost.scanCost(b.p.Spec.ObjectsPerNode)
	if b.p.DataShip {
		cost = b.p.Cost.queryStartup // just package the data
	}
	host := b.net.Host(nodeAddr(node))
	host.Exec(cost, func() {
		if node == b.tp.Base {
			return
		}
		hits := b.p.Spec.MatchCount(node, b.p.Query)
		var size int
		if b.p.DataShip {
			// The entire store crosses the wire, matches or not.
			size = b.p.Cost.resultSize(b.p.Spec.ObjectsPerNode, b.p.Spec.ObjectSize, true)
		} else {
			if hits == 0 {
				return
			}
			size = b.p.Cost.resultSize(hits, b.p.Spec.ObjectSize, b.p.IncludeData)
		}
		// Results travel straight to the base — out-of-network return.
		// Like the live handler, the result echoes the agent's entry
		// neighbor so the base can credit its routing index.
		env := &wire.Envelope{
			Kind: wire.KindResult, ID: wire.NewMsgID(), TTL: 1,
			Hops: uint8(clampHops(hops)),
			From: nodeAddr(node), To: b.baseAt,
			Body: resultBody(hits, node),
		}
		if via != "" {
			env.QRoute = &wire.QRoute{Via: via}
		}
		b.net.Send(nodeAddr(node), b.baseAt, env, size)
	})
}

func clampHops(h int) int {
	if h > 255 {
		return 255
	}
	return h
}

func nodeFromEnvAddr(addr string) int {
	n := 0
	for i := 1; i < len(addr); i++ {
		n = n*10 + int(addr[i]-'0')
	}
	return n
}

// runRound issues one query from the base and runs to quiescence.
func (b *bpSim) runRound() runResult {
	b.seen = make([]bool, b.tp.N)
	b.seen[b.tp.Base] = true
	b.events = nil
	b.mark = markTraffic(b.net)
	var qid wire.MsgID
	binary.BigEndian.PutUint64(qid[:8], uint64(b.p.Spec.Seed))
	binary.BigEndian.PutUint64(qid[8:], b.rounds)
	b.rounds++
	b.qid = qid.String()

	ttl := uint8(clampHops(b.p.TTL))
	targets := b.peers[b.tp.Base]
	route := "flood"
	var epoch uint64
	if b.qr != nil {
		now := b.simTime()
		if val, _, ok := b.qr.GetBase(b.p.Query, now); ok {
			// The whole round is served from the base's answer cache:
			// zero messages on the wire, same answer set as the run that
			// populated it (the epoch guarantees no mutation since).
			cached := val.([]event)
			res := runResult{
				Events: append([]event(nil), cached...),
				Route:  "cached",
			}
			for _, e := range res.Events {
				res.TotalAnswers += e.Answers
			}
			b.journal.Append(obs.Event{
				Kind: obs.EvCacheHit, Query: b.qid,
				Reason: "base", Count: res.TotalAnswers,
			})
			return res
		}
		b.journal.Append(obs.Event{Kind: obs.EvCacheMiss, Query: b.qid})
		// Epoch before the round runs: a mutation racing the query makes
		// the entry stale rather than masking it.
		epoch = b.qr.Epoch()
		addrs := make([]string, len(targets))
		for i, w := range targets {
			addrs[i] = nodeAddr(w)
		}
		plan := b.qr.Select([]string{b.p.Query}, addrs, ttl, now)
		ttl = plan.TTL
		targets = make([]int, len(plan.Targets))
		for i, a := range plan.Targets {
			targets[i] = nodeFromEnvAddr(a)
		}
		switch {
		case plan.Selective:
			route = "selective"
			b.journal.Append(obs.Event{
				Kind: obs.EvSelectiveRoute, Query: b.qid,
				Count: len(plan.Targets), K: len(addrs), Hops: int(plan.TTL),
			})
		case plan.Explored:
			route = "explore"
		}
	}
	// Issued before the fan-out, like the live node, so the journal's
	// answered events always follow their query.
	b.journal.Append(obs.Event{
		Kind:     obs.EvQueryIssued,
		Query:    b.qid,
		Strategy: b.strategyName,
		Hops:     int(ttl),
		Count:    len(targets),
	})
	for _, w := range targets {
		env := &wire.Envelope{
			Kind: wire.KindAgent, ID: wire.NewMsgID(), TTL: ttl, Hops: 1,
			From: b.baseAt, To: nodeAddr(w),
		}
		if b.qr != nil {
			env.QRoute = &wire.QRoute{Via: nodeAddr(w)}
		}
		b.net.Send(b.baseAt, nodeAddr(w), env, b.requestSize())
	}
	b.net.Sim().Run()

	res := b.mark.result(b.net, b.events, route)
	if b.qr != nil {
		b.qr.PutBase(b.p.Query, append([]event(nil), b.events...),
			len(b.events)*48, len(b.events) == 0, epoch, b.simTime())
	}
	b.journal.Append(obs.Event{Kind: obs.EvQueryCompleted, Query: b.qid, Count: res.TotalAnswers})
	return res
}

// reconfigure runs the live node's reconfiguration round
// (reconfig.Round) on the base's observations from the round just
// completed.
func (b *bpSim) reconfigure(strategy reconfig.Strategy, res runResult) {
	base := b.peers[b.tp.Base]
	direct := make([]reconfig.Observation, len(base))
	for i, w := range base {
		direct[i] = reconfig.Observation{Addr: nodeAddr(w)}
	}
	seen := func(yield func(reconfig.Observation)) {
		for _, e := range res.Events {
			yield(reconfig.Observation{
				Addr: nodeAddr(e.Node), Answers: e.Answers, Bytes: e.Answers * b.p.Spec.ObjectSize, Hops: e.Hops,
			})
		}
	}
	picks, why := reconfig.Round(strategy, direct, seen, b.p.MaxPeers)

	// Figure-2 semantics, as on the live node: current peers are retained
	// (they are proven connectivity into the rest of the network) and the
	// picks fill the remaining budget.
	next := append([]int(nil), base...)
	var added []int
	for _, o := range picks {
		if len(next) >= b.p.MaxPeers {
			break
		}
		w := nodeFromEnvAddr(o.Addr)
		next = append(next, w)
		added = append(added, w)
	}
	sort.Ints(next)
	b.peers[b.tp.Base] = next

	// Journal the decision with the strategy's full rationale, exactly
	// like the live node's reconfigure.
	b.journal.Append(obs.Event{
		Kind:     obs.EvReconfigured,
		Query:    b.qid,
		Strategy: strategy.Name(),
		K:        b.p.MaxPeers,
		Count:    len(added),
		Scores:   reconfig.Scores(why),
	})
	for _, w := range added {
		b.journal.Append(obs.Event{
			Kind:     obs.EvPeerAdded,
			Query:    b.qid,
			Strategy: strategy.Name(),
			Peer:     nodeAddr(w),
			Reason:   "reconfig",
		})
	}
}

// runBestPeer executes `rounds` repetitions of the query under the given
// reconfiguration strategy (reconfig.Static == BPS; MaxCount/MinHops ==
// BPR) and returns one runResult per round.
func runBestPeer(tp *topology.Topology, p params, rounds int, strategy reconfig.Strategy) []runResult {
	return runBestPeerObserved(tp, p, rounds, strategy, nil)
}

// runBestPeerObserved is runBestPeer with the base's structured events
// journalled — query lifecycle, answer batches and reconfiguration
// rationale flow through the same obs pipeline a live node feeds, so the
// convergence timeline can be reconstructed from the journal alone.
// A nil journal disables journalling.
func runBestPeerObserved(tp *topology.Topology, p params, rounds int, strategy reconfig.Strategy, journal *obs.Journal) []runResult {
	if strategy == nil {
		strategy = reconfig.MaxCount{}
	}
	b := newBPSim(tp, p)
	b.journal = journal
	b.strategyName = strategy.Name()
	out := make([]runResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		res := b.runRound()
		out = append(out, res)
		if strategy.Name() != "static" {
			b.reconfigure(strategy, res)
		}
	}
	return out
}
