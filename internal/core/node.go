// Package core implements the BestPeer node: the paper's primary
// contribution. A node couples a StorM storage manager, a mobile-agent
// engine, a self-configuring direct-peer set and a LIGLO client. Queries
// are agents cloned to all direct peers; peers with answers reply
// directly to the base node (out-of-network returns); after each query
// the node reconfigures its peer set with a pluggable strategy.
package core

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/liglo"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// errNodeClosed is returned by operations on a node after Close.
var errNodeClosed = errors.New("core: node closed")

// Peer is a directly connected peer: identity plus current address.
type Peer struct {
	ID   wire.BPID
	Addr string
}

// Config configures a Node.
type Config struct {
	// Network supplies connectivity (TCP or in-process).
	Network transport.Network
	// ListenAddr is the address to bind; empty picks one.
	ListenAddr string
	// Store is the node's StorM instance. Required.
	Store *storm.Store
	// Registry holds the node's agent classes. Nil creates a registry
	// with all built-ins installed.
	Registry *agent.Registry
	// ActiveNodes holds the node's active elements. Nil creates an
	// empty set with the default level filter.
	ActiveNodes *agent.ActiveSet
	// MaxPeers caps the direct-peer set (the paper's k). Zero
	// defaults to 5.
	MaxPeers int
	// DefaultTTL is the agent lifetime when the query does not override
	// it. Zero defaults to 7, Gnutella's classic value.
	DefaultTTL uint8
	// Strategy picks which peers to keep after each query. Nil defaults
	// to MaxCount; use reconfig.Static for a non-reconfiguring node
	// (the paper's BPS).
	Strategy reconfig.Strategy
	// AccessLevel is the clearance this node presents when querying.
	AccessLevel int
	// Logger receives structured events (joins, reconfigurations, class
	// transfers, peer sweeps). Nil discards them.
	Logger *slog.Logger
	// Transport tunes the messenger's failure handling (dial/write
	// timeouts, send-queue bounds, suspect backoff). The zero value
	// selects the transport package defaults.
	Transport transport.Options
	// TraceCapacity caps how many query traces the node retains for
	// Trace and the admin endpoint. Zero selects the obs default (128).
	TraceCapacity int
	// JournalCapacity caps the node's structured event journal ring.
	// Zero selects the obs default (1024).
	JournalCapacity int
	// QRoute configures the query answer cache and learned selective
	// routing. The zero value disables the subsystem, keeping the paper's
	// plain flood-everything behavior.
	QRoute qroute.Options
}

// Node is a live BestPeer participant.
type Node struct {
	cfg      Config
	log      *slog.Logger
	store    *storm.Store
	registry *agent.Registry
	active   *agent.ActiveSet
	strategy reconfig.Strategy
	msgr     *transport.Messenger
	lgc      *liglo.Client

	mu      sync.Mutex
	id      wire.BPID
	peers   []Peer
	peerGen uint64 // bumped on every peer-set mutation
	closed  bool
	leaving bool // set by Leave; suppresses repair and peer adoption
	admin   *obs.AdminServer

	seen    *dedup
	queries sync.Map // wire.MsgID -> *queryState
	replies sync.Map // wire.MsgID -> chan *wire.Envelope (outstanding asks)

	// repairKick wakes the repair loop (StartRepair); capacity 1, so
	// concurrent triggers coalesce into one pending round. hintStash
	// holds replacement-neighbor hints from Depart announcements that
	// did not fit the peer set when they arrived; the repair loop
	// prefers them over a LIGLO round trip.
	repairKick chan string
	hintMu     sync.Mutex
	hintStash  []Peer

	// pending holds agents waiting for a class transfer, keyed by class;
	// pendingWants holds peers whose class requests this node could not
	// serve yet.
	pendingMu    sync.Mutex
	pending      map[string][]pendingAgent
	pendingWants map[string][]string

	// metrics is the node's registry; tracer assembles query traces at
	// this node when it acts as a query base; m holds the node-family
	// metric handles.
	metrics *obs.Registry
	tracer  *obs.Tracer
	journal *obs.Journal
	m       nodeMetrics

	// qr is the qroute engine; nil means the subsystem is disabled (every
	// qroute method is nil-safe, so call sites carry no gating).
	qr *qroute.Engine
}

// Stats counts node activity. It is a point-in-time snapshot assembled
// from the node's metric registry by Stats().
type Stats struct {
	AgentsExecuted    uint64
	AgentsForwarded   uint64
	DuplicatesDropped uint64
	ExpiredDropped    uint64
	AnswersSent       uint64
	ClassesShipped    uint64
	ClassesInstalled  uint64
	Reconfigs         uint64
	// DepartsSent counts graceful-leave announcements this node sent;
	// DepartsReceived counts announcements received from direct peers.
	DepartsSent     uint64
	DepartsReceived uint64
	// RepairRounds counts crash-repair rounds run; RepairAdded counts
	// peers those rounds backfilled into the direct-peer set.
	RepairRounds uint64
	RepairAdded  uint64
	// ContainedPanics counts node-goroutine panics that were recovered
	// instead of crashing the process; anything above zero is a bug.
	ContainedPanics uint64
}

// agentDropReasons labels the bestpeer_node_agent_drops_total family and
// doubles as the trace-span Drop vocabulary ("error" excepted: a span
// records it but the agent did execute, so it is not a drop).
var agentDropReasons = []string{"expired", "duplicate", "decode", "no-class"}

// nodeMetrics holds the node's own metric handles (the
// bestpeer_node_* family).
type nodeMetrics struct {
	queries          *obs.Counter
	agentsExecuted   *obs.Counter
	agentsForwarded  *obs.Counter
	answersSent      *obs.Counter
	classesShipped   *obs.Counter
	classesInstalled *obs.Counter
	reconfigs        *obs.Counter
	containedPanics  *obs.Counter
	departsSent      *obs.Counter
	departsReceived  *obs.Counter
	repairRounds     *obs.Counter
	repairAdded      *obs.Counter
	drops            map[string]*obs.Counter
	execSeconds      *obs.Histogram
	answerHops       *obs.Histogram
}

// bindMetrics registers the node metric families on reg and keeps the
// update handles.
func (n *Node) bindMetrics(reg *obs.Registry) {
	n.m.queries = reg.Counter("bestpeer_node_queries_total",
		"Queries issued with this node as the base.")
	n.m.agentsExecuted = reg.Counter("bestpeer_node_agents_executed_total",
		"Agents executed against the local store.")
	n.m.agentsForwarded = reg.Counter("bestpeer_node_agents_forwarded_total",
		"Agent clones forwarded to direct peers.")
	n.m.answersSent = reg.Counter("bestpeer_node_answers_sent_total",
		"Results returned out-of-network to query bases.")
	n.m.classesShipped = reg.Counter("bestpeer_node_classes_shipped_total",
		"Agent class payloads shipped to peers.")
	n.m.classesInstalled = reg.Counter("bestpeer_node_classes_installed_total",
		"Agent classes installed from peers.")
	n.m.reconfigs = reg.Counter("bestpeer_node_reconfigs_total",
		"Peer-set reconfiguration decisions that changed the set.",
		obs.L("strategy", n.strategy.Name()))
	n.m.containedPanics = reg.Counter("bestpeer_node_contained_panics_total",
		"Node-goroutine panics recovered instead of crashing the process.")
	const departHelp = "Graceful-leave (Depart) announcements, by direction."
	n.m.departsSent = reg.Counter("bestpeer_node_departs_total", departHelp,
		obs.L("direction", "sent"))
	n.m.departsReceived = reg.Counter("bestpeer_node_departs_total", departHelp,
		obs.L("direction", "received"))
	n.m.repairRounds = reg.Counter("bestpeer_node_repair_rounds_total",
		"Crash-repair rounds run by the failure-detector loop.")
	n.m.repairAdded = reg.Counter("bestpeer_node_repair_peers_added_total",
		"Peers backfilled into the direct-peer set by repair rounds.")
	n.m.drops = make(map[string]*obs.Counter, len(agentDropReasons))
	for _, reason := range agentDropReasons {
		n.m.drops[reason] = reg.Counter("bestpeer_node_agent_drops_total",
			"Incoming agents dropped without execution, by reason.",
			obs.L("reason", reason))
	}
	n.m.execSeconds = reg.Histogram("bestpeer_node_agent_exec_seconds",
		"Agent execution time against the local store.", obs.LatencyBuckets)
	n.m.answerHops = reg.Histogram("bestpeer_node_answer_hops",
		"Hop distance of answer batches arriving at this base.", obs.HopBuckets)
}

type pendingAgent struct {
	env    *wire.Envelope
	packet *agent.Packet
	// arrived is when the agent reached this node; the span's WaitNS
	// includes any class-transfer wait measured from it.
	arrived time.Time
	// fanOut is how many peers the agent was clone-forwarded to on
	// arrival (forwarding does not wait for the class).
	fanOut int
}

// NewNode starts a node with the given configuration.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: Config.Store is required")
	}
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	if cfg.MaxPeers <= 0 {
		cfg.MaxPeers = 5
	}
	if cfg.DefaultTTL == 0 {
		cfg.DefaultTTL = 7
	}
	reg := cfg.Registry
	if reg == nil {
		reg = agent.NewRegistry()
		if err := agent.RegisterBuiltins(reg); err != nil {
			return nil, err
		}
	}
	act := cfg.ActiveNodes
	if act == nil {
		act = agent.NewActiveSet()
		act.Add(&agent.LevelFilter{})
	}
	strat := cfg.Strategy
	if strat == nil {
		strat = reconfig.MaxCount{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mreg := obs.NewRegistry()
	// Every layer publishes to the node's registry, so one /metrics
	// scrape covers node, transport, LIGLO-client and StorM families;
	// likewise the journal collects transport events alongside the
	// node's own, so one /events read covers every layer.
	journal := obs.NewJournal("", cfg.JournalCapacity)
	journal.SetLogger(logger)
	cfg.Transport.Metrics = mreg
	cfg.Transport.Journal = journal
	n := &Node{
		cfg:          cfg,
		log:          logger,
		store:        cfg.Store,
		registry:     reg,
		active:       act,
		strategy:     strat,
		lgc:          liglo.NewClient(cfg.Network, mreg),
		seen:         newDedup(8192),
		pending:      make(map[string][]pendingAgent),
		pendingWants: make(map[string][]string),
		metrics:      mreg,
		tracer:       obs.NewTracer(cfg.TraceCapacity),
		journal:      journal,
		repairKick:   make(chan string, 1),
	}
	// The transport's failure detector feeds the repair loop: a peer
	// crossing the consecutive-failure threshold kicks a repair round
	// instead of waiting for the next sweep to notice.
	cfg.Transport.OnSuspect = func(_ string, suspect bool) {
		if suspect {
			n.kickRepair("suspect")
		}
	}
	n.bindMetrics(mreg)
	cfg.Store.RegisterMetrics(mreg)
	n.qr = qroute.NewEngine(cfg.QRoute, mreg)
	if n.qr != nil {
		// Any committed store mutation retires every cached answer: the
		// hook fires after commit but before the mutating call returns, so
		// a writer never observes its own write missing from later queries.
		cfg.Store.OnMutation(func() {
			dropped := n.qr.BumpEpoch()
			n.journal.Append(obs.Event{Kind: obs.EvCacheInvalidated, Count: dropped})
		})
	}
	m, err := transport.NewMessengerOpts(cfg.Network, cfg.ListenAddr, n.handle, cfg.Transport)
	if err != nil {
		return nil, err
	}
	n.msgr = m
	journal.SetNode(m.Addr())
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.msgr.Addr() }

// ID returns the node's BPID (zero until Join succeeds).
func (n *Node) ID() wire.BPID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.id
}

// Strategy returns the reconfiguration strategy in use.
func (n *Node) Strategy() reconfig.Strategy { return n.strategy }

// Stats returns a snapshot of the node's counters, read from the metric
// registry.
func (n *Node) Stats() Stats {
	return Stats{
		AgentsExecuted:    n.m.agentsExecuted.Value(),
		AgentsForwarded:   n.m.agentsForwarded.Value(),
		DuplicatesDropped: n.m.drops["duplicate"].Value(),
		ExpiredDropped:    n.m.drops["expired"].Value(),
		AnswersSent:       n.m.answersSent.Value(),
		ClassesShipped:    n.m.classesShipped.Value(),
		ClassesInstalled:  n.m.classesInstalled.Value(),
		Reconfigs:         n.m.reconfigs.Value(),
		DepartsSent:       n.m.departsSent.Value(),
		DepartsReceived:   n.m.departsReceived.Value(),
		RepairRounds:      n.m.repairRounds.Value(),
		RepairAdded:       n.m.repairAdded.Value(),
		ContainedPanics:   n.m.containedPanics.Value(),
	}
}

// Metrics returns the node's metric registry.
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// CacheStats snapshots the node's qroute subsystem (answer cache plus
// routing index); Enabled is false when the subsystem is off.
func (n *Node) CacheStats() qroute.Stats { return n.qr.Stats() }

// Journal returns the node's structured event journal.
func (n *Node) Journal() *obs.Journal { return n.journal }

// MessengerStats returns a snapshot of the node's transport counters.
func (n *Node) MessengerStats() transport.MessengerStats { return n.msgr.Stats() }

// Trace returns the assembled trace for a query this node issued (and
// still retains). Spans arrive asynchronously on the out-of-network
// return path, so a trace read immediately after Query may still grow.
func (n *Node) Trace(queryID wire.MsgID) (*obs.QueryTrace, bool) {
	return n.tracer.Get(queryID)
}

// RecentTraces returns the node's most recently issued query traces,
// newest first.
func (n *Node) RecentTraces(max int) []*obs.QueryTrace {
	return n.tracer.Recent(max)
}

// ServeAdmin starts the node's admin HTTP endpoint (metrics, health,
// peers, query traces, pprof) on addr. Empty or host-less addrs bind
// loopback — the endpoint is diagnostic and unauthenticated, so exposing
// it beyond the local host is an explicit opt-in. The server stops when
// the node closes.
func (n *Node) ServeAdmin(addr string) (*obs.AdminServer, error) {
	if n.isClosed() {
		return nil, errNodeClosed
	}
	srv, err := obs.StartAdmin(addr, obs.AdminConfig{
		Registry: n.metrics,
		Tracer:   n.tracer,
		Journal:  n.journal,
		Health: func() any {
			return map[string]any{
				"status": "ok",
				"addr":   n.Addr(),
				"id":     n.ID().String(),
				"peers":  len(n.Peers()),
			}
		},
		Peers: func() any { return n.Peers() },
		Cache: func() any { return n.qr.Stats() },
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.admin != nil {
		n.mu.Unlock()
		_ = srv.Close() // losing this just-started server's close error is fine; the caller gets the real error below
		return nil, errors.New("core: admin endpoint already serving")
	}
	n.admin = srv
	n.mu.Unlock()
	n.log.Info("admin endpoint serving", "addr", srv.Addr())
	return srv, nil
}

// Peers returns a copy of the direct-peer set.
func (n *Node) Peers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Peer(nil), n.peers...)
}

// PeerAddrs returns the direct peers' addresses, sorted.
func (n *Node) PeerAddrs() []string {
	peers := n.Peers()
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Addr
	}
	sort.Strings(out)
	return out
}

// SetPeers replaces the direct-peer set (used by topology builders and
// tests). The set is clamped to MaxPeers.
func (n *Node) SetPeers(peers []Peer) {
	n.mu.Lock()
	if len(peers) > n.cfg.MaxPeers {
		peers = peers[:n.cfg.MaxPeers]
	}
	old := n.peers
	n.peers = append([]Peer(nil), peers...)
	n.peerGen++
	n.mu.Unlock()
	n.journalPeerDiff(old, peers, "topology")
}

// journalPeerDiff emits peer-added/peer-dropped events for the change
// from old to new, tagged with why the set changed.
func (n *Node) journalPeerDiff(old, cur []Peer, reason string) {
	was := make(map[string]bool, len(old))
	for _, p := range old {
		was[p.Addr] = true
	}
	is := make(map[string]bool, len(cur))
	for _, p := range cur {
		is[p.Addr] = true
		if !was[p.Addr] {
			n.journal.Append(obs.Event{Kind: obs.EvPeerAdded, Peer: p.Addr, Reason: reason})
		}
	}
	for _, p := range old {
		if !is[p.Addr] {
			n.journal.Append(obs.Event{Kind: obs.EvPeerDropped, Peer: p.Addr, Reason: reason})
		}
	}
}

// AddPeer appends a direct peer if there is room and it is not already
// present. It reports whether the peer was added.
func (n *Node) AddPeer(p Peer) bool { return n.addPeerReason(p, "added") }

// addPeerReason is AddPeer with an explicit journal reason ("added",
// "depart-hint", "repair"). A node that has left the overlay (Leave)
// adopts no peers until it joins again, so a straggling Depart hint or
// repair round cannot resurrect edges on a departed node. It vets no
// candidate: the repair paths adopt only peers that answered a probe.
func (n *Node) addPeerReason(p Peer, reason string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving {
		return false
	}
	for _, q := range n.peers {
		if q.Addr == p.Addr {
			return false
		}
	}
	if len(n.peers) >= n.cfg.MaxPeers {
		return false
	}
	n.peers = append(n.peers, p)
	n.peerGen++
	n.journal.Append(obs.Event{Kind: obs.EvPeerAdded, Peer: p.Addr, Reason: reason})
	return true
}

// AdoptIdentity installs a BPID issued in an earlier session, so a
// restarted node keeps its identity and can Rejoin instead of
// re-registering.
func (n *Node) AdoptIdentity(id wire.BPID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.id = id
}

// Join registers with the first accepting LIGLO server, adopting the
// returned BPID and initial peer list.
func (n *Node) Join(servers []string) error {
	id, peers, err := n.lgc.RegisterAny(servers, n.Addr())
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.id = id
	n.leaving = false // a fresh join re-enters the overlay after a Leave
	n.peers = n.peers[:0]
	for _, p := range peers {
		if len(n.peers) >= n.cfg.MaxPeers {
			break
		}
		n.peers = append(n.peers, Peer{ID: p.ID, Addr: p.Addr})
	}
	n.peerGen++
	count := len(n.peers)
	joined := append([]Peer(nil), n.peers...)
	n.mu.Unlock()
	n.journal.Append(obs.Event{Kind: obs.EvJoined, Count: count})
	for _, p := range joined {
		n.journal.Append(obs.Event{Kind: obs.EvPeerAdded, Peer: p.Addr, Reason: "join"})
	}
	n.log.Info("joined bestpeer network", "bpid", id.String(), "initial_peers", count)
	return nil
}

// Rejoin re-announces the node's current address to its LIGLO server and
// refreshes every peer's address via that peer's own LIGLO (§2). Peers
// that are offline or unknown are dropped — the node will meet new peers
// through reconfiguration.
func (n *Node) Rejoin() error {
	n.mu.Lock()
	id := n.id
	peers := append([]Peer(nil), n.peers...)
	n.mu.Unlock()
	if id.IsZero() {
		return errors.New("core: Rejoin before Join")
	}
	if err := n.lgc.Rejoin(id, n.Addr()); err != nil {
		return err
	}
	var fresh []Peer
	for _, p := range peers {
		if p.ID.IsZero() {
			fresh = append(fresh, p) // no identity to check; keep as-is
			continue
		}
		addr, online, err := n.lgc.Lookup(p.ID)
		if err != nil || !online {
			n.journal.Append(obs.Event{Kind: obs.EvPeerDropped, Peer: p.Addr, Reason: "offline"})
			continue
		}
		p.Addr = addr
		fresh = append(fresh, p)
	}
	n.mu.Lock()
	n.leaving = false // rejoining re-enters the overlay after a Leave
	n.peers = fresh
	n.peerGen++
	n.mu.Unlock()
	return nil
}

// Close shuts the node down. The store is not closed — the caller owns it.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	admin := n.admin
	n.admin = nil
	n.mu.Unlock()
	if admin != nil {
		_ = admin.Close() // diagnostic endpoint; messenger shutdown below is what matters
	}
	// Interrupts any LIGLO retry backoff so Close never waits one out.
	_ = n.lgc.Close() // always returns nil
	return n.msgr.Close()
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// send delivers an envelope, ignoring transport errors to individual
// peers: an unreachable peer must not break a broadcast.
func (n *Node) send(to string, env *wire.Envelope) {
	if err := n.msgr.Send(to, env); err != nil {
		// The peer is gone or unreachable. Reconfiguration and Rejoin
		// handle peer-set repair; dropping here matches the paper's
		// "simply replace those peers" behaviour.
		return
	}
}

// containPanic is deferred at the top of node goroutines so a panic in a
// probe or fetch is logged and counted instead of killing the process.
func (n *Node) containPanic(where string) {
	if r := recover(); r != nil {
		n.log.Error("panic contained", "where", where, "panic", r)
		n.m.containedPanics.Inc()
	}
}

// String describes the node.
func (n *Node) String() string {
	return fmt.Sprintf("bestpeer(%s, id=%v, peers=%d)", n.Addr(), n.ID(), len(n.Peers()))
}

// probeTimeout bounds synchronous helper waits.
const probeTimeout = 5 * time.Second
