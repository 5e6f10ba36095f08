package bench

import (
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/topology"
	"bestpeer/internal/wire"
)

// pathScheme is everything that tells the path-routed comparators apart.
type pathScheme struct {
	// query and answer tag the scheme's two frames.
	query, answer wire.Kind
	// relay is the CPU an intermediate hop spends passing an answer
	// upstream — the structural cost that makes path routing degrade
	// with depth.
	relay time.Duration
	// done makes every node send a subtree-completion marker upstream
	// once its own scan has finished and all its children have reported
	// (client/server only: SCS needs it to move to the next server).
	done bool
	// sequential is SCS: one thread per host, and the base holds one
	// connection at a time instead of contacting all servers at once.
	sequential bool
}

// doneKind tags completion markers; it borrows a kind no comparator uses.
const doneKind = wire.KindPeerProbeOK

// pathSim models the schemes BestPeer is measured against — client/server
// (the paper's second implementation, single- or multi-threaded) and
// Gnutella 0.4. A query floods down a fixed topology with duplicate
// suppression; every node executes it (query-shipping: cheap startup, the
// algorithm is already at the server) and answers to the hop the query
// came from; intermediate hops relay answers upstream immediately.
type pathSim struct {
	p   params
	tp  *topology.Topology
	sc  pathScheme
	net *netsim.Network

	// Per-round state.
	route   []int // upstream hop per node (-1 unseen)
	pending []int // completion markers a node still waits for, own scan included
	next    int   // SCS: index of the base's next server
	events  []event
	mark    trafficMark
}

func newPathSim(tp *topology.Topology, p params, sc pathScheme) *pathSim {
	s := &pathSim{
		p: p.withDefaults(), tp: tp, sc: sc,
		route:   make([]int, tp.N),
		pending: make([]int, tp.N),
	}
	threads := hostThreads
	if sc.sequential {
		threads = 1
	}
	s.net = newSimNet(tp, s.p.Cost, threads, s.handle)
	return s
}

func (s *pathSim) handle(node int, env *wire.Envelope) {
	switch env.Kind {
	case s.sc.query:
		s.handleQuery(node, env)
	case s.sc.answer:
		s.handleAnswer(node, env)
	case doneKind:
		s.handleDone(node)
	}
}

// handleQuery records the upstream hop, floods onward and scans locally.
// The order of the two Exec calls is part of the committed figures:
// netsim serves simultaneous work first come, first served.
func (s *pathSim) handleQuery(node int, env *wire.Envelope) {
	if env.Expired() || s.route[node] != -1 {
		return // TTL exhausted, or a duplicate via a cycle
	}
	up := nodeFromEnvAddr(env.From)
	s.route[node] = up

	var targets []int
	if env.TTL > 1 {
		for _, w := range s.tp.Peers(node) {
			if w != up {
				targets = append(targets, w)
			}
		}
	}
	s.pending[node] = len(targets) + 1
	host := s.net.Host(nodeAddr(node))
	if len(targets) > 0 {
		// Routing the descriptor onward costs CPU at every hop.
		host.Exec(s.p.Cost.ForwardCost, func() {
			for _, w := range targets {
				fwd := env.Forwarded(nodeAddr(node), nodeAddr(w))
				s.net.Send(nodeAddr(node), nodeAddr(w), fwd, s.p.Cost.compressed(s.p.Cost.querySize))
			}
		})
	}
	host.Exec(s.p.Cost.queryStartup+s.p.Cost.scanCost(s.p.Spec.ObjectsPerNode), func() {
		if hits := s.p.Spec.MatchCount(node, s.p.Query); hits > 0 {
			s.sendUp(node, hits, node, env.Hops)
		}
		s.handleDone(node) // own scan complete, after the answer
	})
}

// sendUp sends origin's answer batch one hop toward the base; every hop
// re-transmits the full message.
func (s *pathSim) sendUp(node, hits, origin int, hops uint8) {
	up := nodeAddr(s.route[node])
	env := &wire.Envelope{
		Kind: s.sc.answer, ID: wire.NewMsgID(), TTL: 1, Hops: hops,
		From: nodeAddr(node), To: up, Body: resultBody(hits, origin),
	}
	s.net.Send(nodeAddr(node), up, env,
		s.p.Cost.resultSize(hits, s.p.Spec.ObjectSize, s.p.IncludeData))
}

// handleAnswer records an answer at the base or relays it upstream.
func (s *pathSim) handleAnswer(node int, env *wire.Envelope) {
	hits, origin := resultFromBody(env.Body)
	if node == s.tp.Base {
		s.events = append(s.events, event{
			Node: origin, Answers: hits, Hops: int(env.Hops),
			At: s.net.Sim().Now() - s.mark.started,
		})
		return
	}
	s.net.Host(nodeAddr(node)).Exec(s.sc.relay, func() {
		s.sendUp(node, hits, origin, env.Hops)
	})
}

// handleDone counts one report of node's subtree (a child's marker or its
// own scan) and passes the marker upstream when the subtree is complete.
func (s *pathSim) handleDone(node int) {
	if !s.sc.done {
		return
	}
	s.pending[node]--
	if s.pending[node] > 0 {
		return
	}
	if node == s.tp.Base {
		if s.sc.sequential {
			s.dispatchNext()
		}
		return
	}
	up := nodeAddr(s.route[node])
	env := &wire.Envelope{
		Kind: doneKind, ID: wire.NewMsgID(), TTL: 1,
		From: nodeAddr(node), To: up,
	}
	s.net.Send(nodeAddr(node), up, env, 32)
}

// dispatchNext sends the query to the base's next server, if any is left.
func (s *pathSim) dispatchNext() {
	servers := s.tp.Peers(s.tp.Base)
	if s.next < len(servers) {
		s.pending[s.tp.Base] = 1 // this server's marker
		s.sendQuery(servers[s.next])
		s.next++
	}
}

func (s *pathSim) sendQuery(to int) {
	base := nodeAddr(s.tp.Base)
	env := &wire.Envelope{
		Kind: s.sc.query, ID: wire.NewMsgID(),
		TTL: uint8(clampHops(s.p.TTL)), Hops: 1,
		From: base, To: nodeAddr(to),
	}
	s.net.Send(base, nodeAddr(to), env, s.p.Cost.compressed(s.p.Cost.querySize))
}

// runRound issues the query once from the base and runs to quiescence.
func (s *pathSim) runRound() runResult {
	for i := range s.route {
		s.route[i] = -1
	}
	s.route[s.tp.Base] = s.tp.Base // the base has no upstream
	s.next = 0
	s.events = nil
	s.mark = markTraffic(s.net)

	// Topology peer lists are ascending, and that order is part of the
	// figures too.
	if s.sc.sequential {
		s.dispatchNext()
	} else {
		servers := s.tp.Peers(s.tp.Base)
		s.pending[s.tp.Base] = len(servers)
		for _, w := range servers {
			s.sendQuery(w)
		}
	}
	s.net.Sim().Run()
	return s.mark.result(s.net, s.events, "flood")
}

// runCS executes one query under the client/server model. singleThread
// selects SCS (sequential dispatch, one server thread); otherwise MCS.
func runCS(tp *topology.Topology, p params, singleThread bool) runResult {
	return newPathSim(tp, p, pathScheme{
		query: wire.KindCSQuery, answer: wire.KindCSAnswer,
		relay: p.Cost.relayCost, done: true, sequential: singleThread,
	}).runRound()
}

// runGnutella executes `rounds` repetitions of the query on one network.
// The peer set is fixed, so every round traverses the same path — the
// property the paper contrasts with BestPeer's reconfiguration. QueryHits
// carry file-name lists only (the protocol never returns file data
// in-band), which matches the Fig. 8 configuration where BestPeer also
// returns name lists.
func runGnutella(tp *topology.Topology, p params, rounds int) []runResult {
	p.IncludeData = false
	s := newPathSim(tp, p, pathScheme{
		query: wire.KindGnuQuery, answer: wire.KindGnuQueryHit,
		relay: p.Cost.gnuRelay,
	})
	out := make([]runResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, s.runRound())
	}
	return out
}
