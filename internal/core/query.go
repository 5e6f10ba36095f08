package core

import (
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/wire"
)

// QueryOptions tunes one query broadcast.
type QueryOptions struct {
	// TTL overrides the node's default agent lifetime.
	TTL uint8
	// Mode selects answer handling: 1 (default) peers return data
	// directly; 2 peers return hints and the base fetches on demand.
	Mode uint8
	// Timeout is the collection window. Zero defaults to one second.
	Timeout time.Duration
	// WaitAnswers stops collection early once this many answers have
	// arrived. Zero waits out the full timeout.
	WaitAnswers int
	// SkipLocal leaves the node's own store out of the result set.
	SkipLocal bool
}

// Answer is one result attributed to the peer that produced it.
type Answer struct {
	// PeerAddr is the answering peer's address.
	PeerAddr string
	// PeerID is its BestPeer identity (zero if it has none).
	PeerID wire.BPID
	// Hops is how far the agent had travelled when it matched.
	Hops int
	// Result is the matched object (Data empty for hints).
	Result agent.Result
	// At is when the answer arrived, measured from query start.
	At time.Duration
	// Cached reports that this answer was served from a qroute answer
	// cache — the base's own (a whole-query hit) or a remote peer's
	// serve-site cache — rather than a fresh store scan.
	Cached bool
}

// QueryResult is everything a query produced.
type QueryResult struct {
	// ID is the query identifier.
	ID wire.MsgID
	// Answers holds full results (mode 1, plus local matches).
	Answers []Answer
	// Hints holds name-only results (mode 2).
	Hints []Answer
	// Elapsed is the total collection time.
	Elapsed time.Duration
	// Reconfigured reports whether the peer set changed afterwards.
	Reconfigured bool
	// Cached reports that the whole query was answered from the base's
	// answer cache: no agents were spawned or forwarded.
	Cached bool
}

// queryState accumulates answers for an outstanding query.
type queryState struct {
	mu      sync.Mutex
	start   time.Time
	answers []Answer
	hints   []Answer
	target  int
	done    chan struct{}
	closed  bool

	// terms are the query's routing-fingerprint terms, set once before
	// the state is published and read by handleResult to credit the
	// neighbor each answer batch arrived via. Empty when the agent has no
	// fingerprint or qroute is disabled.
	terms []string
}

func newQueryState(target int) *queryState {
	return &queryState{
		start:  time.Now(),
		target: target,
		done:   make(chan struct{}),
	}
}

func (q *queryState) deliver(batch *agent.ResultBatch, hint, cached bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	at := time.Since(q.start)
	for _, r := range batch.Results {
		a := Answer{
			PeerAddr: batch.FromAddr,
			PeerID:   batch.From,
			Hops:     batch.Hops,
			Result:   r,
			At:       at,
			Cached:   cached,
		}
		if hint {
			q.hints = append(q.hints, a)
		} else {
			q.answers = append(q.answers, a)
		}
	}
	if q.target > 0 && len(q.answers)+len(q.hints) >= q.target {
		q.closed = true
		close(q.done)
	}
}

// collect closes the state and hands its answers and hints over: a batch
// that arrives later is dropped, as once the target is met, so nothing
// appends to the slices again.
func (q *queryState) collect() ([]Answer, []Answer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	return q.answers, q.hints
}

// Query broadcasts ag to the network and collects answers. After
// collection the node reconfigures its direct-peer set with its strategy
// (unless disabled). Query is safe to call from multiple goroutines.
func (n *Node) Query(ag agent.Agent, opts QueryOptions) (*QueryResult, error) {
	if n.isClosed() {
		return nil, errNodeClosed
	}
	state, err := ag.State()
	if err != nil {
		return nil, fmt.Errorf("core: serializing agent: %w", err)
	}
	ttl := opts.TTL
	if ttl == 0 {
		ttl = n.cfg.DefaultTTL
	}
	mode := opts.Mode
	if mode == 0 {
		mode = 1
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	qid := wire.NewMsgID()

	// qroute: a fingerprintable query can be answered from the base's
	// answer cache and fanned out selectively. SkipLocal queries are not
	// cacheable — a cached answer set includes the base's own matches.
	var (
		qKey   string
		qTerms []string
	)
	if n.qr != nil {
		if fp, ok := ag.(agent.Fingerprinter); ok {
			if k := fp.QueryKey(); k != "" {
				qKey = qroute.Key(ag.Class(), mode, n.cfg.AccessLevel, k)
				qTerms = fp.QueryTerms()
			}
		}
	}
	cacheable := qKey != "" && !opts.SkipLocal
	if cacheable {
		if val, negative, ok := n.qr.GetBase(qKey, time.Now()); ok {
			return n.cachedResult(qid, val, negative), nil
		}
		n.journal.Append(obs.Event{Kind: obs.EvCacheMiss, Query: qid.String()})
	}
	// qEpoch versions the answer set about to be gathered. It is read
	// before any store access so a mutation racing the collection window
	// invalidates the cached entry instead of being masked by it.
	qEpoch := n.qr.Epoch()

	n.seen.Seen(qid) // never re-execute our own agent if it loops back
	qs := newQueryState(opts.WaitAnswers)
	qs.terms = qTerms
	n.queries.Store(qid, qs)
	defer n.queries.Delete(qid)
	n.m.queries.Inc()
	n.tracer.Begin(qid, n.Addr())
	// Issued before the fan-out so downstream answered/forwarded events
	// never precede their query in the journal.
	n.journal.Append(obs.Event{
		Kind:     obs.EvQueryIssued,
		Query:    qid.String(),
		Strategy: n.strategy.Name(),
		Hops:     int(ttl),
		Count:    len(n.Peers()),
	})

	packet := &agent.Packet{
		Class:       ag.Class(),
		State:       state,
		Base:        n.Addr(),
		BaseID:      n.ID(),
		AccessLevel: n.cfg.AccessLevel,
		Mode:        mode,
	}
	body := agent.EncodePacket(packet)

	// Local execution: the base node's own sharable data participates.
	localSpan := wire.TraceSpan{Peer: n.Addr(), Hop: 0}
	if !opts.SkipLocal {
		ctx := &agent.Context{
			Store:       n.store,
			NodeAddr:    n.Addr(),
			Hops:        0,
			Requester:   n.ID(),
			AccessLevel: n.cfg.AccessLevel,
			ActiveNodes: n.active,
		}
		execStart := time.Now()
		local, err := ag.Execute(ctx)
		localSpan.ExecNS = time.Since(execStart).Nanoseconds()
		localSpan.Matches = len(local)
		if err == nil && len(local) > 0 {
			if mode == 2 {
				// Hints carry names only, local ones included.
				stripped := make([]agent.Result, len(local))
				for i, r := range local {
					stripped[i] = agent.Result{Name: r.Name}
				}
				local = stripped
			}
			qs.deliver(&agent.ResultBatch{
				FromAddr: n.Addr(), From: n.ID(), Hops: 0, Results: local,
			}, mode == 2, false)
		}
	}

	// Clone to every direct peer. Sends are queued on the messenger's
	// per-destination workers, so a hung or slow peer cannot eat into
	// the collection window — the fan-out completes immediately and the
	// full timeout below is spent collecting. Each clone carries the
	// trace context so every hop can report a span back to this base.
	me := n.Addr()
	tc := &wire.TraceContext{QueryID: qid, Base: me}
	// The routing index prunes the fan-out to the neighbors that answered
	// this query's terms before, with the TTL scoped to the depth those
	// answers came from; low confidence or ε-exploration floods instead
	// (and a disabled engine always floods at full TTL).
	neighbors := n.PeerAddrs()
	plan := n.qr.Select(qTerms, neighbors, ttl, time.Now())
	if plan.Selective {
		n.journal.Append(obs.Event{
			Kind:  obs.EvSelectiveRoute,
			Query: qid.String(),
			Count: len(plan.Targets),
			K:     len(neighbors),
			Hops:  int(plan.TTL),
		})
	}
	for _, addr := range plan.Targets {
		env := &wire.Envelope{
			Kind:  wire.KindAgent,
			ID:    qid,
			TTL:   plan.TTL,
			Hops:  1, // arriving at a direct peer means one hop travelled
			From:  me,
			To:    addr,
			Body:  body,
			Trace: tc,
		}
		if n.qr != nil {
			// Via stamps which direct peer this clone entered the network
			// through; every answer it provokes carries the stamp back so
			// handleResult can credit that neighbor in the routing index.
			env.QRoute = &wire.QRoute{Via: addr}
		}
		n.send(addr, env)
		localSpan.FanOut++
	}
	n.tracer.Record(qid, localSpan)

	select {
	case <-qs.done:
	case <-time.After(timeout):
	}
	answers, hints := qs.collect()

	res := &QueryResult{
		ID:      qid,
		Answers: answers,
		Hints:   hints,
		Elapsed: time.Since(qs.start),
	}
	n.journal.Append(obs.Event{
		Kind:  obs.EvQueryCompleted,
		Query: qid.String(),
		Count: len(answers) + len(hints),
	})
	if cacheable {
		// The stored copies are private to the cache so a caller mutating
		// the returned slices cannot corrupt later hits. An empty round
		// becomes a short-lived negative entry. The entry carries the
		// answering peers as provenance so a peer's departure evicts the
		// answers it served.
		n.qr.PutBaseFrom(qKey, &cachedAnswers{
			answers: append([]Answer(nil), answers...),
			hints:   append([]Answer(nil), hints...),
		}, answersSize(answers, hints), len(answers)+len(hints) == 0, qEpoch, time.Now(),
			answerSites(n.Addr(), answers, hints))
	}
	res.Reconfigured = n.reconfigure(qid, answers, hints)
	return res, nil
}

// cachedAnswers is the value stored at the base cache site: one query's
// whole collected answer set.
type cachedAnswers struct {
	answers []Answer
	hints   []Answer
}

// cachedResult materializes a base-cache hit as a QueryResult: the query
// is answered locally with zero fan-out, and every answer carries the
// cached-provenance flag.
func (n *Node) cachedResult(qid wire.MsgID, val any, negative bool) *QueryResult {
	start := time.Now()
	n.m.queries.Inc()
	res := &QueryResult{ID: qid, Cached: true}
	reason := "negative"
	if !negative {
		ca := val.(*cachedAnswers)
		res.Answers = flagCached(ca.answers)
		res.Hints = flagCached(ca.hints)
		reason = "base"
	}
	n.journal.Append(obs.Event{
		Kind:   obs.EvCacheHit,
		Query:  qid.String(),
		Reason: reason,
		Count:  len(res.Answers) + len(res.Hints),
	})
	res.Elapsed = time.Since(start)
	return res
}

// flagCached copies an answer list with the cached-provenance flag set.
func flagCached(in []Answer) []Answer {
	if len(in) == 0 {
		return nil
	}
	out := make([]Answer, len(in))
	for i, a := range in {
		a.Cached = true
		out[i] = a
	}
	return out
}

// answerOverhead approximates one Answer's fixed footprint for cache
// byte accounting.
const answerOverhead = 64

// answerSites collects the distinct remote peers an answer set came
// from — the cache-entry provenance ForgetNeighbor evicts by.
func answerSites(me string, lists ...[]Answer) []string {
	var sites []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, a := range l {
			if a.PeerAddr == "" || a.PeerAddr == me || seen[a.PeerAddr] {
				continue
			}
			seen[a.PeerAddr] = true
			sites = append(sites, a.PeerAddr)
		}
	}
	return sites
}

// answersSize estimates an answer set's cache footprint.
func answersSize(lists ...[]Answer) int {
	size := 0
	for _, l := range lists {
		for _, a := range l {
			size += answerOverhead + len(a.PeerAddr) + len(a.Result.Name) + len(a.Result.Data)
		}
	}
	return size
}

// reconfigure runs one reconfiguration round (reconfig.Round) on what
// this query revealed: every answering peer and every current direct peer
// is a candidate, and the strategy's picks that were not direct peers
// fill the set's free slots. The full rationale — every candidate's
// score, rank and k-cut outcome — is journalled.
func (n *Node) reconfigure(qid wire.MsgID, answers, hints []Answer) bool {
	me := n.Addr()
	peers := n.Peers()
	direct := make([]reconfig.Observation, len(peers))
	for i, p := range peers {
		direct[i] = reconfig.Observation{ID: p.ID, Addr: p.Addr}
	}
	seen := func(yield func(reconfig.Observation)) {
		for _, l := range [][]Answer{answers, hints} {
			for _, a := range l {
				if a.PeerAddr != me && a.PeerAddr != "" {
					yield(reconfig.Observation{
						ID: a.PeerID, Addr: a.PeerAddr, Answers: 1, Bytes: len(a.Result.Data), Hops: a.Hops,
					})
				}
			}
		}
	}
	k := n.cfg.MaxPeers
	picks, why := reconfig.Round(n.strategy, direct, seen, k)

	// Figure-2 semantics: current peers are retained; the picks fill the
	// remaining budget. Dead peers are dropped by repair and Rejoin,
	// freeing slots. The picks join the set as it stands now, not as it
	// stood before the round: a peer that was direct then and has been
	// dropped since (a Depart, a sweep) is not brought back, and a Leave
	// meanwhile refuses every pick.
	strategy := n.strategy.Name()
	added, _ := n.editPeers(obs.Event{Reason: "reconfig", Query: qid.String(), Strategy: strategy},
		func(cur []Peer) []Peer {
			for _, o := range picks {
				cur = append(cur, Peer{ID: o.ID, Addr: o.Addr})
			}
			return cur
		})

	// Journal the decision rationale whether or not the set changed: a
	// round where every candidate lost to the incumbents is as much a
	// decision as one that promotes peers.
	n.journal.Append(obs.Event{
		Kind:     obs.EvReconfigured,
		Query:    qid.String(),
		Strategy: strategy,
		K:        k,
		Count:    len(added),
		Scores:   reconfig.Scores(why),
	})
	if len(added) == 0 {
		return false
	}
	n.m.reconfigs.Inc()
	addrs := make([]string, len(added))
	for i, p := range added {
		addrs[i] = p.Addr
	}
	n.log.Info("reconfigured peer set", "strategy", strategy, "added", addrs)
	return true
}

// Fetch performs the mode-2 follow-up: retrieve the named objects from a
// peer that hinted it has them. The transfer is out-of-network — a direct
// exchange with that peer.
func (n *Node) Fetch(peerAddr string, names []string, timeout time.Duration) ([]agent.Result, error) {
	if n.isClosed() {
		return nil, errNodeClosed
	}
	body := wire.Marshal(&fetchReq{
		Names:       names,
		Base:        n.Addr(),
		BaseID:      n.ID(),
		AccessLevel: n.cfg.AccessLevel,
	})
	// One reply batch is expected. A request or reply lost on a faulty
	// network gets exactly one retransmission (the peer simply re-serves
	// the same names; fetches are idempotent).
	env, ok := n.ask(peerAddr, wire.KindFetch, wire.KindResult, body, 2, timeout)
	if !ok {
		return nil, fmt.Errorf("core: fetch from %s timed out", peerAddr)
	}
	batch, err := agent.DecodeResults(env.Body)
	if err != nil {
		return nil, fmt.Errorf("core: fetch from %s: %w", peerAddr, err)
	}
	return batch.Results, nil
}

// Probe checks whether a peer is alive by round-tripping a probe message.
func (n *Node) Probe(addr string, timeout time.Duration) bool {
	_, ok := n.ask(addr, wire.KindPeerProbe, wire.KindPeerProbeOK, nil, 1, timeout)
	return ok
}

// ask sends a one-hop request of kind with body to addr and waits up to
// timeout (probeTimeout when zero) for the reply carrying the request's
// ID, which must be of kind want. The window is split among tries sends
// under that one ID, so a late reply to an earlier send still counts.
func (n *Node) ask(addr string, kind, want wire.Kind, body []byte, tries int, timeout time.Duration) (*wire.Envelope, bool) {
	if timeout <= 0 {
		timeout = probeTimeout
	}
	id := wire.NewMsgID()
	ch := make(chan *wire.Envelope, 1)
	n.replies.Store(id, ch)
	defer n.replies.Delete(id)
	for i := 0; i < tries; i++ {
		n.send(addr, &wire.Envelope{Kind: kind, ID: id, TTL: 1, From: n.Addr(), To: addr, Body: body})
		select {
		case env := <-ch:
			return env, env.Kind == want
		case <-time.After(timeout / time.Duration(tries)):
		}
	}
	return nil, false
}

// deliverReply completes an outstanding ask. A late reply finds no entry
// and is dropped.
func (n *Node) deliverReply(env *wire.Envelope) {
	if v, ok := n.replies.Load(env.ID); ok {
		select {
		case v.(chan *wire.Envelope) <- env:
		default: // duplicate reply; the first one won
		}
	}
}
