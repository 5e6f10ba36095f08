package chord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// Protocol errors.
var (
	// errUnroutable reports that a lookup ran out of live candidates or
	// exceeded the hop bound before reaching the key's owner.
	errUnroutable = errors.New("chord: key unroutable")
	// errBadReply reports a response of the wrong kind or with a remote
	// error string.
	errBadReply = errors.New("chord: bad reply")
)

// failThreshold is how many consecutive RPC failures mark an address
// failing for routing.
const failThreshold = 2

// fingersPerRound is how many finger slots one maintenance tick
// refreshes; the full table cycles in Bits/fingersPerRound ticks.
const fingersPerRound = 8

// maxHops bounds how many times a recursive lookup may be forwarded.
const maxHops = Bits

// Config tunes a live chord node. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Successors is the successor-list length. Default 4.
	Successors int
	// StabilizeEvery is the stabilize/notify cadence. Default 500ms.
	StabilizeEvery time.Duration
	// FixFingersEvery is the finger-refresh cadence. Default 1s.
	FixFingersEvery time.Duration
	// CheckPredEvery is the predecessor liveness cadence. Default 1s.
	CheckPredEvery time.Duration
	// Metrics is the registry the node's counters are published to. Nil
	// means a private registry.
	Metrics *obs.Registry
	// Journal receives ring lifecycle events. Nil disables journalling.
	Journal *obs.Journal
}

func (c Config) withDefaults() Config {
	if c.Successors <= 0 {
		c.Successors = defaultSuccessors
	}
	if c.StabilizeEvery <= 0 {
		c.StabilizeEvery = 500 * time.Millisecond
	}
	if c.FixFingersEvery <= 0 {
		c.FixFingersEvery = time.Second
	}
	if c.CheckPredEvery <= 0 {
		c.CheckPredEvery = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Node is one live chord participant. It owns no listener: the hosting
// server accepts connections and routes chord-kind envelopes to
// HandleEnvelope, while the node dials out for its own RPCs.
type Node struct {
	network transport.Network
	cfg     Config
	self    NodeRef

	mu         sync.Mutex
	t          *Table
	fingerNext int
	fails      map[string]int
	started    bool
	closed     bool

	stop chan struct{}
	wg   sync.WaitGroup

	lookups     *obs.Counter
	lookupFails *obs.Counter
	forwards    *obs.Counter
	stabilizes  *obs.Counter
	rpcFails    *obs.Counter
	panics      *obs.Counter
}

// New builds a node for the given address — which must be where the host
// listens, since peers derive the node's ring key from it. Call Create
// or Join to start maintenance.
func New(network transport.Network, addr string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	self := refFor(addr)
	n := &Node{
		network: network,
		cfg:     cfg,
		self:    self,
		t:       newTable(self, cfg.Successors),
		fails:   make(map[string]int),
		stop:    make(chan struct{}),
		lookups: cfg.Metrics.Counter("bestpeer_chord_lookups_total",
			"Key lookups initiated or forwarded by this node."),
		lookupFails: cfg.Metrics.Counter("bestpeer_chord_lookup_failures_total",
			"Lookups abandoned: hop bound hit or no live candidate."),
		forwards: cfg.Metrics.Counter("bestpeer_chord_forwards_total",
			"Lookup requests forwarded to a closer node."),
		stabilizes: cfg.Metrics.Counter("bestpeer_chord_stabilizes_total",
			"Stabilize rounds run."),
		rpcFails: cfg.Metrics.Counter("bestpeer_chord_rpc_failures_total",
			"Chord RPC exchanges that failed at the transport layer."),
		panics: cfg.Metrics.Counter("bestpeer_chord_panics_total",
			"Chord goroutine panics contained."),
	}
	return n
}

// contain is deferred at the top of every node goroutine so a panic is
// recorded instead of taking the whole process down.
func (n *Node) contain() {
	if r := recover(); r != nil {
		n.panics.Inc()
	}
}

// start launches the maintenance loop once.
func (n *Node) start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.closed {
		return
	}
	n.started = true
	n.wg.Add(1)
	go n.maintainLoop()
}

// Create starts the node as the sole member of a fresh ring.
func (n *Node) Create() {
	n.start()
	n.cfg.Journal.Append(obs.Event{Kind: obs.EvRingJoined, Node: n.self.Addr})
}

// Join attaches the node to the ring a seed address belongs to: the
// owner of the node's own key becomes its successor, and stabilization
// weaves it in from there.
func (n *Node) Join(seed string) error {
	resp, err := n.rpcLookup(seed, n.self.Key, 0)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", seed, err)
	}
	succ := resp.Owner
	if succ.IsZero() || succ.Addr == n.self.Addr {
		succ = refFor(seed)
	}
	n.mu.Lock()
	n.t.setSuccessors([]NodeRef{succ})
	n.mu.Unlock()
	if p, perr := n.rpcProbe(succ.Addr); perr == nil {
		var sp NodeRef
		if p.HasPred {
			sp = p.Pred
		}
		n.mu.Lock()
		n.t.adoptFromProbe(succ, sp, p.Succs)
		succ = n.t.successor()
		n.mu.Unlock()
	}
	n.notifyPeer(succ)
	n.start()
	n.cfg.Journal.Append(obs.Event{Kind: obs.EvRingJoined, Node: n.self.Addr, Peer: succ.Addr})
	return nil
}

// Leave departs gracefully: both ring neighbors get a handoff naming
// their replacement, so the ring closes immediately instead of waiting
// for failure detection. The node stops afterwards.
func (n *Node) Leave() error {
	n.mu.Lock()
	succ := n.t.successor()
	pred, hasPred := n.t.predecessor()
	n.mu.Unlock()
	var firstErr error
	if succ.Addr != n.self.Addr {
		msg := &notifyMsg{Version: chordNotifyVersion, Self: n.self, Leaving: true}
		if hasPred {
			msg.Repl = pred
		}
		if err := n.rpcNotify(succ.Addr, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if hasPred && pred.Addr != n.self.Addr {
		msg := &notifyMsg{Version: chordNotifyVersion, Self: n.self, Leaving: true, Repl: succ}
		if err := n.rpcNotify(pred.Addr, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.cfg.Journal.Append(obs.Event{Kind: obs.EvRingLeft, Node: n.self.Addr, Reason: "leave"})
	n.shutdown()
	return firstErr
}

// Close stops the maintenance loop and waits for it. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	wasStarted := n.started && !n.closed
	n.mu.Unlock()
	if wasStarted {
		n.cfg.Journal.Append(obs.Event{Kind: obs.EvRingLeft, Node: n.self.Addr, Reason: "close"})
	}
	n.shutdown()
	return nil
}

func (n *Node) shutdown() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
}

// Snapshot describes the node's current ring neighborhood — the admin
// endpoint's view of ring membership.
type Snapshot struct {
	Self        NodeRef   `json:"self"`
	Predecessor *NodeRef  `json:"predecessor,omitempty"`
	Successors  []NodeRef `json:"successors"`
	Fingers     []NodeRef `json:"fingers,omitempty"` // distinct, in table order
}

// Snapshot returns the current neighborhood.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Snapshot{Self: n.self, Successors: n.t.successors()}
	if p, ok := n.t.predecessor(); ok {
		s.Predecessor = &p
	}
	seen := make(map[string]bool)
	for _, f := range n.t.fingerCopy() {
		if f.IsZero() || seen[f.Addr] {
			continue
		}
		seen[f.Addr] = true
		s.Fingers = append(s.Fingers, f)
	}
	return s
}

// FindOwner resolves the owner of k, returning the owning node and how
// many forwarding hops the resolution took.
func (n *Node) FindOwner(k Key) (NodeRef, int, error) {
	n.lookups.Inc()
	owner, hops, err := n.route(k, 0)
	if err != nil {
		n.lookupFails.Inc()
		return NodeRef{}, int(hops), err
	}
	return owner, int(hops), nil
}

// Owns reports whether this node is currently responsible for k.
func (n *Node) Owns(k Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.t.Owns(k)
}

// route performs the recursive lookup step loop: answer locally when the
// successor interval covers k, otherwise hand the query to the closest
// preceding live node, retrying past peers that fail.
func (n *Node) route(k Key, hops uint64) (NodeRef, uint64, error) {
	for attempt := 0; attempt <= n.cfg.Successors+1; attempt++ {
		if hops > maxHops {
			return NodeRef{}, hops, fmt.Errorf("%w: %d hops", errUnroutable, hops)
		}
		n.mu.Lock()
		owner, hop, done := n.t.NextHop(k, n.failingLocked)
		n.mu.Unlock()
		if done {
			if owner.Addr != n.self.Addr && n.isFailing(owner.Addr) {
				n.dropFailed(owner.Addr)
				continue
			}
			return owner, hops, nil
		}
		n.forwards.Inc()
		resp, err := n.rpcLookup(hop.Addr, k, hops+1)
		if err != nil {
			n.dropFailed(hop.Addr)
			continue
		}
		return resp.Owner, resp.Hops, nil
	}
	return NodeRef{}, hops, errUnroutable
}

// failingLocked is the routing veto; the caller holds n.mu.
func (n *Node) failingLocked(addr string) bool {
	return n.fails[addr] >= failThreshold
}

func (n *Node) isFailing(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failingLocked(addr)
}

// dropFailed purges addr from the routing table after a failure.
func (n *Node) dropFailed(addr string) {
	n.mu.Lock()
	n.fails[addr]++
	wasSucc := n.t.successor().Addr == addr
	changed := n.t.removeFailed(addr)
	succ := n.t.successor()
	n.mu.Unlock()
	if changed && wasSucc {
		n.journalNeighbor("successor", succ.Addr)
	}
}

func (n *Node) noteOK(addr string) {
	n.mu.Lock()
	delete(n.fails, addr)
	n.mu.Unlock()
}

func (n *Node) journalNeighbor(slot, addr string) {
	n.cfg.Journal.Append(obs.Event{
		Kind: obs.EvRingNeighborChanged, Node: n.self.Addr,
		Reason: slot, Peer: addr,
	})
}

// maintainLoop is the node's only goroutine: stabilize, fix-fingers and
// check-predecessor on their cadences.
func (n *Node) maintainLoop() {
	defer n.wg.Done()
	defer n.contain()
	stab := time.NewTicker(n.cfg.StabilizeEvery)
	defer stab.Stop()
	fix := time.NewTicker(n.cfg.FixFingersEvery)
	defer fix.Stop()
	pred := time.NewTicker(n.cfg.CheckPredEvery)
	defer pred.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-stab.C:
			n.Stabilize()
		case <-fix.C:
			n.fixFingersRound()
		case <-pred.C:
			n.CheckPredecessor()
		}
	}
}

// Stabilize runs one stabilize round: probe the successor, adopt any
// node that joined in front of us, back up its successor list, and
// notify it of our existence. Exported so hosts and tests can force
// convergence instead of waiting out the ticker.
func (n *Node) Stabilize() {
	n.stabilizes.Inc()
	n.mu.Lock()
	succ := n.t.successor()
	pred, hasPred := n.t.predecessor()
	n.mu.Unlock()
	if succ.Addr == n.self.Addr {
		// Alone — unless someone notified us: adopt the predecessor as
		// successor so a two-node ring closes.
		if hasPred && pred.Addr != n.self.Addr {
			n.mu.Lock()
			n.t.setSuccessors([]NodeRef{pred})
			n.mu.Unlock()
			n.journalNeighbor("successor", pred.Addr)
			n.notifyPeer(pred)
		}
		return
	}
	resp, err := n.rpcProbe(succ.Addr)
	if err != nil {
		n.dropFailed(succ.Addr)
		return
	}
	var sp NodeRef
	if resp.HasPred {
		sp = resp.Pred
	}
	n.mu.Lock()
	changed := n.t.adoptFromProbe(succ, sp, resp.Succs)
	newSucc := n.t.successor()
	n.mu.Unlock()
	if changed {
		n.journalNeighbor("successor", newSucc.Addr)
	}
	n.notifyPeer(newSucc)
}

// notifyPeer tells addr we may be its predecessor.
func (n *Node) notifyPeer(peer NodeRef) {
	if peer.IsZero() || peer.Addr == n.self.Addr {
		return
	}
	msg := &notifyMsg{Version: chordNotifyVersion, Self: n.self}
	if err := n.rpcNotify(peer.Addr, msg); err != nil {
		n.dropFailed(peer.Addr)
	}
}

// fixFingersRound refreshes the next few finger slots by resolving each
// interval start's owner through the ring.
func (n *Node) fixFingersRound() {
	for i := 0; i < fingersPerRound; i++ {
		n.mu.Lock()
		idx := n.fingerNext
		n.fingerNext = (n.fingerNext + 1) % Bits
		n.mu.Unlock()
		owner, _, err := n.route(fingerStart(n.self.Key, idx), 0)
		if err != nil {
			return
		}
		n.mu.Lock()
		n.t.setFinger(idx, owner)
		n.mu.Unlock()
	}
}

// RefreshFingers resolves every finger slot once — a full table build,
// used by hosts right after join and by tests to force convergence.
func (n *Node) RefreshFingers() {
	for i := 0; i < Bits; i++ {
		owner, _, err := n.route(fingerStart(n.self.Key, i), 0)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.t.setFinger(i, owner)
		n.mu.Unlock()
	}
}

// CheckPredecessor validates the predecessor's liveness and forgets it
// when it stops answering, so a future notify can fill the slot.
// Exported so hosts and tests can force convergence.
func (n *Node) CheckPredecessor() {
	n.mu.Lock()
	pred, ok := n.t.predecessor()
	dead := ok && n.failingLocked(pred.Addr)
	n.mu.Unlock()
	if !ok {
		return
	}
	if !dead {
		if _, err := n.rpcProbe(pred.Addr); err == nil {
			return
		}
	}
	n.mu.Lock()
	stillPred := n.t.pred.Addr == pred.Addr
	if stillPred {
		n.t.dropPredecessor()
	}
	n.mu.Unlock()
	if stillPred {
		n.journalNeighbor("predecessor", "")
	}
}

// HandleEnvelope serves one chord request and returns the reply, or nil
// when the envelope is not an intelligible chord request — the host
// drops the connection, exactly like the LIGLO dispatch path.
func (n *Node) HandleEnvelope(req *wire.Envelope) *wire.Envelope {
	switch req.Kind {
	case wire.KindChordLookup:
		m, err := unmarshal(req.Body, new(lookupReq), "lookup-req")
		if err != nil {
			return nil
		}
		return n.handleLookup(m)
	case wire.KindChordNotify:
		m, err := unmarshal(req.Body, new(notifyMsg), "notify")
		if err != nil {
			return nil
		}
		return n.handleNotify(m)
	case wire.KindChordProbe:
		m, err := unmarshal(req.Body, new(probeReq), "probe")
		if err != nil {
			return nil
		}
		return n.handleProbe(m)
	default:
		return nil
	}
}

func ringReply(kind wire.Kind, body []byte) *wire.Envelope {
	return &wire.Envelope{Kind: kind, ID: wire.NewMsgID(), TTL: 1, Body: body}
}

func (n *Node) handleLookup(m *lookupReq) *wire.Envelope {
	n.lookups.Inc()
	resp := &lookupOK{Version: chordLookupVersion}
	owner, hops, err := n.route(m.Key, m.Hops)
	if err != nil {
		n.lookupFails.Inc()
		resp.Err = err.Error()
		resp.Hops = hops
	} else {
		resp.Owner = owner
		resp.Hops = hops
	}
	return ringReply(wire.KindChordLookupOK, wire.Marshal(resp))
}

func (n *Node) handleNotify(m *notifyMsg) *wire.Envelope {
	if m.Leaving {
		n.mu.Lock()
		wasSucc := n.t.successor().Addr == m.Self.Addr
		wasPred := func() bool { p, ok := n.t.predecessor(); return ok && p.Addr == m.Self.Addr }()
		changed := n.t.depart(m.Self, m.Repl)
		succ := n.t.successor()
		predR, hasPred := n.t.predecessor()
		n.mu.Unlock()
		if changed && wasSucc {
			n.journalNeighbor("successor", succ.Addr)
		}
		if changed && wasPred {
			predAddr := ""
			if hasPred {
				predAddr = predR.Addr
			}
			n.journalNeighbor("predecessor", predAddr)
		}
	} else {
		n.mu.Lock()
		changed := n.t.notify(m.Self)
		n.mu.Unlock()
		n.noteOK(m.Self.Addr)
		if changed {
			n.journalNeighbor("predecessor", m.Self.Addr)
		}
	}
	return ringReply(wire.KindChordNotifyOK, wire.Marshal(&notifyOK{Version: chordNotifyVersion}))
}

func (n *Node) handleProbe(m *probeReq) *wire.Envelope {
	if !m.From.IsZero() {
		n.noteOK(m.From.Addr)
	}
	n.mu.Lock()
	resp := &probeOK{Version: chordProbeVersion, Self: n.self, Succs: n.t.successors()}
	if p, ok := n.t.predecessor(); ok {
		resp.HasPred = true
		resp.Pred = p
	}
	n.mu.Unlock()
	return ringReply(wire.KindChordProbeOK, wire.Marshal(resp))
}

// reply is a decoded chord reply: each carries the remote error text.
type reply interface {
	wire.Message
	remoteErr() string
}

func (m *lookupOK) remoteErr() string { return m.Err }
func (m *notifyOK) remoteErr() string { return m.Err }
func (m *probeOK) remoteErr() string  { return m.Err }

// rpc performs one transport.Call and decodes its reply, which must be of
// kind want, into out. A failed exchange counts in rpcFails; any answer
// proves addr alive, and a wrong kind or a remote error is errBadReply.
func (n *Node) rpc(addr string, req *wire.Envelope, want wire.Kind, out reply) error {
	resp, err := transport.Call(n.network, addr, req, want)
	if err != nil && !errors.Is(err, transport.ErrUnexpectedReply) {
		n.rpcFails.Inc()
		return fmt.Errorf("chord: %w", err)
	}
	n.noteOK(addr)
	if err != nil {
		return fmt.Errorf("%w: %v", errBadReply, err)
	}
	if _, err := unmarshal(resp.Body, out, want.String()); err != nil {
		return err
	}
	if out.remoteErr() != "" {
		return fmt.Errorf("%w: %s", errBadReply, out.remoteErr())
	}
	return nil
}

func (n *Node) rpcLookup(addr string, k Key, hops uint64) (*lookupOK, error) {
	m := new(lookupOK)
	req := ringReply(wire.KindChordLookup,
		wire.Marshal(&lookupReq{Version: chordLookupVersion, Key: k, Hops: hops}))
	if err := n.rpc(addr, req, wire.KindChordLookupOK, m); err != nil {
		return nil, err
	}
	return m, nil
}

func (n *Node) rpcNotify(addr string, msg *notifyMsg) error {
	return n.rpc(addr, ringReply(wire.KindChordNotify, wire.Marshal(msg)), wire.KindChordNotifyOK, new(notifyOK))
}

func (n *Node) rpcProbe(addr string) (*probeOK, error) {
	m := new(probeOK)
	req := ringReply(wire.KindChordProbe,
		wire.Marshal(&probeReq{Version: chordProbeVersion, From: n.self}))
	if err := n.rpc(addr, req, wire.KindChordProbeOK, m); err != nil {
		return nil, err
	}
	return m, nil
}
