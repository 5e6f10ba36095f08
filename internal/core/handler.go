package core

import (
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/wire"
)

// handle dispatches every envelope delivered to this node. It runs on
// messenger reader goroutines, so everything it touches is synchronized.
func (n *Node) handle(env *wire.Envelope) {
	if n.isClosed() {
		return
	}
	switch env.Kind {
	case wire.KindAgent:
		n.handleAgent(env)
	case wire.KindResult:
		n.handleResult(env, false)
	case wire.KindHint:
		n.handleResult(env, true)
	case wire.KindFetch:
		n.handleFetch(env)
	case wire.KindClassWant:
		n.handleClassWant(env)
	case wire.KindClassShip:
		n.handleClassShip(env)
	case wire.KindPeerProbe, wire.KindPeerList:
		switch {
		case n.Leaving():
			n.departTo(env.From, env.ID, nil) // a node that has left refuses every ask
		case env.Kind == wire.KindPeerList:
			n.handlePeerList(env)
		default:
			n.send(env.From, &wire.Envelope{
				Kind: wire.KindPeerProbeOK, ID: env.ID, TTL: 1,
				From: n.Addr(), To: env.From,
			})
		}
	case wire.KindPeerProbeOK, wire.KindPeerListOK:
		n.deliverReply(env)
	case wire.KindDepart:
		// The edge drops before the reply wakes an asker the Depart
		// refused, so a repair round's stale probe result is discarded.
		n.handleDepart(env)
		n.deliverReply(env)
	case wire.KindSpan:
		// A standalone trace-span report from a peer that had no result
		// envelope to piggyback on; the ID is the traced query's.
		if env.Span != nil {
			n.tracer.Record(env.ID, *env.Span)
		}
	default:
		// Not a BestPeer message; ignore.
	}
}

// dropAgent counts a non-executed agent and, when the envelope carries
// trace context, reports a drop span to the base so the trace shows
// where (and why) propagation was cut.
func (n *Node) dropAgent(env *wire.Envelope, reason string) {
	n.m.drops[reason].Inc()
	n.journal.Append(obs.Event{
		Kind:   obs.EvAgentDropped,
		Query:  env.ID.String(),
		Peer:   env.From,
		Reason: reason,
		Hops:   int(env.Hops),
	})
	if env.Trace == nil {
		return
	}
	n.reportSpan(env.Trace, &wire.TraceSpan{
		Peer:   n.Addr(),
		Parent: env.From,
		Hop:    int(env.Hops),
		Drop:   reason,
	})
}

// reportSpan delivers one hop span to the trace base: recorded directly
// when this node is the base, otherwise sent as a standalone KindSpan
// report (result envelopes piggyback their span instead — see
// executeAgent).
func (n *Node) reportSpan(tc *wire.TraceContext, span *wire.TraceSpan) {
	if tc.Base == n.Addr() {
		n.tracer.Record(tc.QueryID, *span)
		return
	}
	n.send(tc.Base, &wire.Envelope{
		Kind: wire.KindSpan,
		ID:   tc.QueryID,
		TTL:  1,
		From: n.Addr(),
		To:   tc.Base,
		Span: span,
	})
}

// handleAgent implements the receive side of §3.1: drop duplicates and
// expired agents, obtain the class if missing, execute locally, send
// answers directly to the base node, and clone-forward to direct peers.
func (n *Node) handleAgent(env *wire.Envelope) {
	arrived := time.Now()
	if env.Expired() {
		// Lifetime exhausted on arrival: the host drops the agent
		// without executing it, so TTL t reaches exactly distance t.
		n.dropAgent(env, "expired")
		return
	}
	if n.seen.Seen(env.ID) {
		n.dropAgent(env, "duplicate")
		return
	}
	packet, err := agent.DecodePacket(env.Body)
	if err != nil {
		n.dropAgent(env, "decode")
		return
	}
	// Forward first: propagation does not wait for a class transfer.
	fanOut := n.forwardAgent(env)

	if !n.registry.Installed(packet.Class) {
		if !n.registry.Known(packet.Class) {
			n.dropAgent(env, "no-class")
			return // cannot ever run this class
		}
		// Park the agent and ask the previous hop for the class.
		n.pendingMu.Lock()
		n.pending[packet.Class] = append(n.pending[packet.Class],
			pendingAgent{env: env, packet: packet, arrived: arrived, fanOut: fanOut})
		first := len(n.pending[packet.Class]) == 1
		n.pendingMu.Unlock()
		if first {
			n.send(env.From, &wire.Envelope{
				Kind: wire.KindClassWant, ID: wire.NewMsgID(), TTL: 1,
				From: n.Addr(), To: env.From,
				Body: wire.Marshal(&classWant{Class: packet.Class}),
			})
		}
		return
	}
	n.executeAgent(env, packet, arrived, fanOut)
}

// forwardAgent clones the agent to every direct peer except the one it
// came from, decrementing TTL and incrementing Hops. Clones that would
// arrive already expired are not sent. It returns the fan-out: how many
// clones were dispatched.
func (n *Node) forwardAgent(env *wire.Envelope) int {
	if env.TTL <= 1 {
		return 0
	}
	from := env.From
	me := n.Addr()
	fanOut := 0
	for _, p := range n.Peers() {
		if p.Addr == from || p.Addr == me {
			continue
		}
		n.send(p.Addr, env.Forwarded(me, p.Addr))
		n.m.agentsForwarded.Inc()
		fanOut++
	}
	if fanOut > 0 {
		n.journal.Append(obs.Event{
			Kind:  obs.EvAgentForwarded,
			Query: env.ID.String(),
			Peer:  from,
			Hops:  int(env.Hops),
			Count: fanOut,
		})
	}
	return fanOut
}

// executeAgent reconstructs and runs the agent against the local store,
// then returns any answers straight to the base node. When the envelope
// carries trace context, the hop's span rides the result envelope (or
// travels as a standalone report when there is nothing to return).
func (n *Node) executeAgent(env *wire.Envelope, packet *agent.Packet, arrived time.Time, fanOut int) {
	var span *wire.TraceSpan
	if env.Trace != nil {
		span = &wire.TraceSpan{
			Peer:   n.Addr(),
			Parent: env.From,
			Hop:    int(env.Hops),
			WaitNS: time.Since(arrived).Nanoseconds(),
			FanOut: fanOut,
		}
	}
	ag, err := n.registry.New(packet.Class, packet.State)
	if err != nil {
		n.dropAgent(env, "decode")
		return
	}
	// qroute serve-site cache: an identical fingerprint seen since the
	// last store mutation skips the store scan entirely. The epoch is
	// read before the lookup/execution so a racing mutation invalidates
	// the entry rather than being masked by it.
	var (
		sKey     string
		sEpoch   uint64
		served   bool
		negative bool
		results  []agent.Result
		execErr  error
	)
	if n.qr != nil {
		if fp, ok := ag.(agent.Fingerprinter); ok {
			if k := fp.QueryKey(); k != "" {
				sKey = qroute.Key(packet.Class, packet.Mode, packet.AccessLevel, k)
			}
		}
	}
	if sKey != "" {
		sEpoch = n.qr.Epoch()
		if val, neg, ok := n.qr.GetServe(sKey, time.Now()); ok {
			served, negative = true, neg
			if !neg {
				results = val.([]agent.Result)
			}
		}
	}
	if served {
		reason := "serve"
		if negative {
			reason = "negative"
		}
		n.journal.Append(obs.Event{
			Kind:   obs.EvCacheHit,
			Query:  env.ID.String(),
			Peer:   env.From,
			Reason: reason,
			Count:  len(results),
		})
		if span != nil {
			span.Matches = len(results)
		}
	} else {
		// The hits' data is copied into a pooled arena, so the results
		// may be views of it until the send below has encoded them.
		arena := wire.GetBuffer()
		defer wire.PutBuffer(arena)
		ctx := &agent.Context{
			Store:       n.store,
			NodeAddr:    n.Addr(),
			Hops:        int(env.Hops),
			Requester:   packet.BaseID,
			AccessLevel: packet.AccessLevel,
			ActiveNodes: n.active,
			Arena:       arena,
		}
		start := time.Now()
		results, execErr = ag.Execute(ctx)
		n.m.execSeconds.ObserveDurationExemplar(time.Since(start), env.ID.String())
		n.m.agentsExecuted.Inc()
		if span != nil {
			span.ExecNS = time.Since(start).Nanoseconds()
			span.Matches = len(results)
		}
		if sKey != "" && execErr == nil {
			n.qr.PutServe(sKey, ownResults(results), resultsSize(results),
				len(results) == 0, sEpoch, time.Now())
		}
	}
	if execErr != nil || len(results) == 0 {
		if span != nil {
			n.reportSpan(env.Trace, span)
		}
		return
	}
	kind := wire.KindResult
	if packet.Mode == 2 {
		// Hint mode: announce names only; the base fetches what it wants.
		kind = wire.KindHint
		stripped := make([]agent.Result, len(results))
		for i, r := range results {
			stripped[i] = agent.Result{Name: r.Name}
		}
		results = stripped
	}
	n.m.answersSent.Add(uint64(len(results)))
	if span != nil && env.Trace.Base == n.Addr() {
		// This node is the base (an agent looped back); record locally
		// and strip the piggyback.
		n.tracer.Record(env.Trace.QueryID, *span)
		span = nil
	}
	// The result envelope echoes the clone's Via stamp so the base can
	// credit the entry neighbor, and carries cached provenance plus the
	// serving epoch when the answer came from this node's cache.
	var rqr *wire.QRoute
	if env.QRoute != nil {
		rqr = &wire.QRoute{Via: env.QRoute.Via, Cached: served, Epoch: sEpoch}
	} else if served {
		rqr = &wire.QRoute{Cached: true, Epoch: sEpoch}
	}
	body := wire.GetBuffer()
	*body = agent.AppendResults(*body, results, int(env.Hops), n.ID(), n.Addr())
	n.send(packet.Base, &wire.Envelope{
		Kind:   kind,
		ID:     env.ID, // answers carry the query id so the base can route them
		TTL:    1,
		From:   n.Addr(),
		To:     packet.Base,
		Body:   *body,
		Span:   span,
		QRoute: rqr,
	})
	wire.PutBuffer(body) // send has encoded it; the arena goes back on return
}

// ownResults copies a result set out of whatever buffers its Data views,
// into one allocation holding every Data, for a consumer that keeps it.
// Each Data is clipped to its length, as in a decoded batch.
func ownResults(results []agent.Result) []agent.Result {
	size := 0
	for _, r := range results {
		size += len(r.Data)
	}
	buf := make([]byte, 0, size)
	out := make([]agent.Result, len(results))
	for i, r := range results {
		out[i].Name = r.Name
		if r.Data != nil {
			start := len(buf)
			buf = append(buf, r.Data...)
			out[i].Data = buf[start:len(buf):len(buf)]
		}
	}
	return out
}

// resultsSize estimates a result set's cache footprint.
func resultsSize(results []agent.Result) int {
	size := 0
	for _, r := range results {
		size += answerOverhead + len(r.Name) + len(r.Data)
	}
	return size
}

// handleResult routes an incoming answer batch to its query, recording
// any piggybacked trace span first. The batch is decoded only for a live
// query: a result under any other ID is a fetch reply for deliverReply,
// and an answer that arrives after its query finished costs two lookups.
func (n *Node) handleResult(env *wire.Envelope, hint bool) {
	if env.Span != nil {
		n.tracer.Record(env.ID, *env.Span)
	}
	v, ok := n.queries.Load(env.ID)
	if !ok {
		if !hint {
			n.deliverReply(env) // a fetch reply; a late answer finds no entry
		}
		return
	}
	batch, err := agent.DecodeResults(env.Body)
	if err != nil {
		return
	}
	n.m.answerHops.ObserveExemplar(float64(batch.Hops), env.ID.String())
	n.journal.Append(obs.Event{
		Kind:  obs.EvAgentAnswered,
		Query: env.ID.String(),
		Peer:  batch.FromAddr,
		Hops:  batch.Hops,
		Count: len(batch.Results),
	})
	qs := v.(*queryState)
	cached := false
	if env.QRoute != nil {
		cached = env.QRoute.Cached
		if env.QRoute.Via != "" {
			// Credit the direct peer this batch entered the network
			// through so later queries on the same terms route to it.
			n.qr.Observe(qs.terms, env.QRoute.Via, len(batch.Results), batch.Hops, time.Now())
		}
	}
	qs.deliver(batch, hint, cached)
}

// handleFetch serves a mode-2 follow-up: read the named objects, apply
// active-object access control for the requester, reply with the data.
func (n *Node) handleFetch(env *wire.Envelope) {
	req, err := unmarshal(env.Body, new(fetchReq), "fetch")
	if err != nil {
		return
	}
	var results []agent.Result
	for _, name := range req.Names {
		obj, err := n.store.Get(name)
		if err != nil {
			continue // removed since the hint — the race §2 acknowledges
		}
		data, ok := n.active.RenderObject(obj, req.AccessLevel)
		if !ok {
			continue
		}
		results = append(results, agent.Result{Name: name, Data: data})
	}
	body := wire.GetBuffer()
	*body = agent.AppendResults(*body, results, 0, n.ID(), n.Addr())
	n.send(req.Base, &wire.Envelope{
		Kind: wire.KindResult,
		ID:   env.ID, // fetch reply carries the fetch id
		TTL:  1,
		From: n.Addr(),
		To:   req.Base,
		Body: *body,
	})
	wire.PutBuffer(body) // send has encoded it
}

// handleClassWant serves a class payload to a node that lacks it. If
// this node is itself waiting for the class (a chain of cold nodes), the
// request is parked and served when the class arrives.
func (n *Node) handleClassWant(env *wire.Envelope) {
	w, err := unmarshal(env.Body, new(classWant), "class-want")
	if err != nil || w.Class == "" {
		return
	}
	code, err := n.registry.Code(w.Class)
	if err != nil {
		if n.registry.Known(w.Class) {
			n.pendingMu.Lock()
			n.pendingWants[w.Class] = append(n.pendingWants[w.Class], env.From)
			n.pendingMu.Unlock()
		}
		return
	}
	n.shipClass(env.From, w.Class, code)
}

func (n *Node) shipClass(to, class string, code []byte) {
	n.m.classesShipped.Inc()
	n.send(to, &wire.Envelope{
		Kind: wire.KindClassShip, ID: wire.NewMsgID(), TTL: 1,
		From: n.Addr(), To: to,
		Body: wire.Marshal(&classShip{Class: class, Code: code}),
	})
}

// handleClassShip installs a shipped class and runs any parked agents.
func (n *Node) handleClassShip(env *wire.Envelope) {
	s, err := unmarshal(env.Body, new(classShip), "class-ship")
	if err != nil || s.Class == "" {
		return
	}
	if err := n.registry.Install(s.Class, s.Code); err != nil {
		n.log.Warn("class install rejected", "class", s.Class, "err", err)
		return
	}
	n.m.classesInstalled.Inc()
	n.log.Info("installed shipped class", "class", s.Class, "bytes", len(s.Code))
	n.pendingMu.Lock()
	parked := n.pending[s.Class]
	delete(n.pending, s.Class)
	wants := n.pendingWants[s.Class]
	delete(n.pendingWants, s.Class)
	n.pendingMu.Unlock()
	for _, pa := range parked {
		n.executeAgent(pa.env, pa.packet, pa.arrived, pa.fanOut)
	}
	// Serve downstream nodes whose class requests arrived while this
	// node was itself still waiting for the class.
	for _, to := range wants {
		n.shipClass(to, s.Class, s.Code)
	}
}
