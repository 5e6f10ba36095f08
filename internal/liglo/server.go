package liglo

import (
	"net"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/chord"
	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// ServerConfig tunes a LIGLO server.
type ServerConfig struct {
	// Capacity caps the number of members; further registrations are
	// rejected with ErrFull so the node seeks another server. Zero means
	// unlimited.
	Capacity int
	// InitialPeers is how many (BPID, addr) pairs a fresh registrant
	// receives as its starting direct peers. Zero defaults to 5.
	InitialPeers int
	// ProbeInterval is how often the validator checks member liveness.
	// Zero disables automatic probing (CheckNow remains available).
	ProbeInterval time.Duration
	// Metrics is the registry the server's counters are published to.
	// Nil means a private registry.
	Metrics *obs.Registry
	// Journal receives structured member-liveness events (registered,
	// online, offline). Nil disables journalling.
	Journal *obs.Journal
	// Ring, when non-nil, joins this server into a Chord ring of LIGLO
	// servers that partitions BPID resolution by key ownership with
	// successor-list replication. Nil keeps the classic standalone mode.
	Ring *RingConfig
}

type member struct {
	node     uint64
	addr     string
	online   bool
	lastSeen time.Time
	// departed marks an explicit graceful leave (Deregister). The
	// member's process often stays alive so it can Rejoin later — the
	// liveness sweep must not take a successful dial as evidence the
	// member is back. Only Rejoin clears the flag.
	departed bool
}

// Server is one LIGLO server: it issues BPIDs, records member addresses
// and validates their liveness.
type Server struct {
	network  transport.Network
	listener net.Listener
	cfg      ServerConfig

	mu      sync.Mutex
	nextID  uint64
	members map[uint64]*member
	// foreign holds replicated records for BPIDs issued by other ring
	// servers, keyed by BPID string. Served when this server owns the
	// issuer's ring key.
	foreign map[string]RingRecord
	closed  bool

	// Ring mode (nil / zero outside it).
	ring           *chord.Node
	replicateEvery time.Duration

	metrics *obs.Registry

	wg        sync.WaitGroup
	stopProbe chan struct{}

	// Metric handles, registered on cfg.Metrics at construction.
	registers   *obs.Counter
	rejoins     *obs.Counter
	lookups     *obs.Counter
	rejected    *obs.Counter
	deregisters *obs.Counter
	// panics counts goroutine panics contained by the server; anything
	// above zero is a bug worth a look, but it never kills the process.
	panics *obs.Counter
	// Liveness-sweep outcomes: how many member probes came back alive
	// or dead across all sweeps, and how many sweeps ran.
	sweeps       *obs.Counter
	sweepOnline  *obs.Counter
	sweepOffline *obs.Counter
	// Ring-mode traffic: requests redirected to the owning server and
	// replication batches acknowledged by successors.
	redirects    *obs.Counter
	replications *obs.Counter
}

// contain is deferred at the top of every server goroutine so a panic is
// recorded instead of taking the whole process down.
func (s *Server) contain() {
	if r := recover(); r != nil {
		s.panics.Inc()
	}
}

// NewServer binds addr on the network and starts serving. The bound
// address (Addr) is the server's LIGLOID.
func NewServer(network transport.Network, addr string, cfg ServerConfig) (*Server, error) {
	if cfg.InitialPeers <= 0 {
		cfg.InitialPeers = 5
	}
	l, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	const sweepHelp = "Member probes per liveness sweep, by outcome."
	s := &Server{
		network:   network,
		listener:  l,
		cfg:       cfg,
		members:   make(map[uint64]*member),
		foreign:   make(map[string]RingRecord),
		metrics:   reg,
		stopProbe: make(chan struct{}),
		registers: reg.Counter("bestpeer_liglo_registers_total",
			"BPIDs issued to first-time registrants."),
		rejoins: reg.Counter("bestpeer_liglo_rejoins_total",
			"Members that reported a new address after reconnecting."),
		lookups: reg.Counter("bestpeer_liglo_lookups_total",
			"BPID-to-address resolutions served."),
		rejected: reg.Counter("bestpeer_liglo_rejected_total",
			"Registrations refused because the server was at capacity."),
		deregisters: reg.Counter("bestpeer_liglo_deregisters_total",
			"Members that announced a graceful leave and were marked offline."),
		panics: reg.Counter("bestpeer_liglo_panics_total",
			"Server goroutine panics contained."),
		sweeps: reg.Counter("bestpeer_liglo_sweeps_total",
			"Liveness sweeps completed."),
		sweepOnline:  reg.Counter("bestpeer_liglo_sweep_members_total", sweepHelp, obs.L("outcome", "online")),
		sweepOffline: reg.Counter("bestpeer_liglo_sweep_members_total", sweepHelp, obs.L("outcome", "offline")),
		redirects: reg.Counter("bestpeer_liglo_ring_redirects_total",
			"Requests redirected to the ring server owning the BPID's key."),
		replications: reg.Counter("bestpeer_liglo_ring_replications_total",
			"Record batches acknowledged by ring successors."),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	if cfg.Ring != nil {
		if err := s.startRing(); err != nil {
			_ = s.Close() // the join failure is the error worth reporting
			return nil, err
		}
	}
	return s, nil
}

// Addr returns the server's address — the LIGLOID embedded in every BPID
// it issues.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Members returns the number of registered members.
func (s *Server) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer s.contain()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.contain()
			s.handleConn(conn)
		}()
	}
}

// handleConn serves request/response exchanges on one connection until
// the client hangs up.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	wc := wire.NewConn(conn)
	for {
		req, err := wc.Recv()
		if err != nil {
			return
		}
		resp := s.dispatch(req)
		if resp == nil {
			return // unintelligible request: drop the connection
		}
		if err := wc.Send(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *wire.Envelope) *wire.Envelope {
	switch req.Kind {
	case wire.KindLigloRegister:
		r, err := unmarshal(req.Body, new(registerReq), "register")
		if err != nil {
			return nil
		}
		return s.handleRegister(r)
	case wire.KindLigloRejoin:
		r, err := unmarshal(req.Body, new(rejoinReq), "rejoin")
		if err != nil {
			return nil
		}
		return s.handleRejoin(r)
	case wire.KindLigloLookup:
		r, err := unmarshal(req.Body, new(lookupReq), "lookup")
		if err != nil {
			return nil
		}
		return s.handleLookup(r)
	case wire.KindLigloPeers:
		r, err := unmarshal(req.Body, new(peersReq), "peers")
		if err != nil {
			return nil
		}
		return s.handlePeers(r)
	case wire.KindLigloDeregister:
		r, err := unmarshal(req.Body, new(deregisterReq), "deregister")
		if err != nil {
			return nil
		}
		return s.handleDeregister(r)
	case wire.KindChordLookup, wire.KindChordNotify, wire.KindChordProbe:
		if s.ring == nil {
			return nil
		}
		return s.ring.HandleEnvelope(req)
	case wire.KindRingReplicate:
		if s.ring == nil {
			return nil
		}
		m, err := unmarshal(req.Body, new(replicateMsg), "replicate")
		if err != nil {
			return nil
		}
		return s.handleReplicate(m)
	default:
		return nil
	}
}

// reply builds a one-hop envelope: a server's reply, or a client's request.
func reply(kind wire.Kind, body []byte) *wire.Envelope {
	return &wire.Envelope{Kind: kind, ID: wire.NewMsgID(), TTL: 1, Body: body}
}

func (s *Server) handleRegister(r *registerReq) *wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.cfg.Capacity > 0 && len(s.members) >= s.cfg.Capacity {
		s.rejected.Inc()
		return reply(wire.KindLigloRegisterd, wire.Marshal(&registerResp{Err: ErrFull.Error()}))
	}
	s.nextID++
	m := &member{node: s.nextID, addr: r.Addr, online: true, lastSeen: time.Now()}
	peers := s.peerListLocked(m.node, s.cfg.InitialPeers)
	s.members[m.node] = m
	s.registers.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberRegistered, Peer: r.Addr})

	return reply(wire.KindLigloRegisterd, wire.Marshal(&registerResp{
		ID:    wire.BPID{LIGLO: s.Addr(), Node: m.node},
		Peers: peers,
	}))
}

// peerListLocked selects up to limit online members (excluding self) as
// a member's direct peers, preferring the most recently seen. In ring
// mode the locally-issued table holds only this server's registrants, so
// remaining slots are filled from replicated foreign records — without
// them a fleet spread across ring servers would bootstrap with zero
// connectivity. Caller holds s.mu.
func (s *Server) peerListLocked(exclude uint64, limit int) []PeerInfo {
	var online []*member
	for _, m := range s.members {
		if m.node != exclude && m.online {
			online = append(online, m)
		}
	}
	sort.Slice(online, func(i, j int) bool {
		if !online[i].lastSeen.Equal(online[j].lastSeen) {
			return online[i].lastSeen.After(online[j].lastSeen)
		}
		return online[i].node < online[j].node
	})
	if len(online) > limit {
		online = online[:limit]
	}
	peers := make([]PeerInfo, 0, len(online))
	for _, m := range online {
		peers = append(peers, PeerInfo{
			ID:   wire.BPID{LIGLO: s.Addr(), Node: m.node},
			Addr: m.addr,
		})
	}
	if len(peers) < limit && len(s.foreign) > 0 {
		ids := make([]string, 0, len(s.foreign))
		for id, rec := range s.foreign {
			if rec.Online && !rec.Departed {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			if len(peers) >= limit {
				break
			}
			rec := s.foreign[id]
			peers = append(peers, PeerInfo{ID: rec.ID, Addr: rec.Addr})
		}
	}
	return peers
}

func (s *Server) handleRejoin(r *rejoinReq) *wire.Envelope {
	where, owner, key, err := s.routeID(r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{Err: err.Error()}))
	}
	switch where {
	case routeForeign:
		return s.foreignRejoin(r)
	case routeRedirect:
		return s.redirectReply("rejoin", owner, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[r.ID.Node]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{Err: ErrUnknown.Error()}))
	}
	cameBack := !m.online
	m.addr = r.Addr
	m.online = true
	m.departed = false // an explicit rejoin ends a graceful departure
	m.lastSeen = time.Now()
	s.rejoins.Inc()
	if cameBack {
		s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberOnline, Peer: r.Addr, Reason: "rejoin"})
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{}))
}

// handleDeregister marks a member offline immediately on its own say-so —
// a graceful leave does not have to wait for a probe sweep to time out.
// The membership record and BPID survive: the member can Rejoin later
// under the same identity. Unlike a member a sweep found offline, a
// deregistered member is pinned there — its process may stay up awaiting
// a Rejoin, and a dialable address is not consent to rejoin the overlay.
func (s *Server) handleDeregister(r *deregisterReq) *wire.Envelope {
	where, owner, key, err := s.routeID(r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{Err: err.Error()}))
	}
	switch where {
	case routeForeign:
		return s.foreignDeregister(r)
	case routeRedirect:
		return s.redirectReply("deregister", owner, key)
	}
	s.mu.Lock()
	m, ok := s.members[r.ID.Node]
	if !ok {
		s.mu.Unlock()
		return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{Err: ErrUnknown.Error()}))
	}
	wasOnline := m.online
	m.online = false
	m.departed = true
	m.lastSeen = time.Now()
	addr := m.addr
	s.mu.Unlock()
	s.deregisters.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberDeregistered, Peer: addr})
	if wasOnline {
		s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberOffline, Peer: addr, Reason: "deregister"})
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{}))
}

func (s *Server) handleLookup(r *lookupReq) *wire.Envelope {
	where, owner, key, err := s.routeID(r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{Err: err.Error()}))
	}
	switch where {
	case routeForeign:
		return s.foreignLookup(r)
	case routeRedirect:
		return s.redirectReply("lookup", owner, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups.Inc()
	m, ok := s.members[r.ID.Node]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{Found: false}))
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{
		Found:  true,
		Addr:   m.addr,
		Online: m.online,
	}))
}

// handlePeers serves a fresh list of online members, excluding the
// requester, most-recently-seen first. This is how a member that lost
// peers encounters new ones without re-registering.
func (s *Server) handlePeers(r *peersReq) *wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	exclude := uint64(0)
	if r.Self.LIGLO == s.Addr() {
		exclude = r.Self.Node
	}
	limit := s.cfg.InitialPeers
	if r.Max > 0 {
		limit = r.Max
	}
	return reply(wire.KindLigloPeersList, wire.Marshal(&peersResp{Peers: s.peerListLocked(exclude, limit)}))
}

// probeLoop periodically validates member addresses — members are not
// obliged to announce disconnection, so LIGLO checks for itself.
//
// The interval runs from the end of one sweep to the start of the next:
// a ticker would queue a tick during a slow sweep, and Close could then
// lose the race against it and wait out a second sweep.
func (s *Server) probeLoop() {
	defer s.wg.Done()
	defer s.contain()
	t := time.NewTimer(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopProbe:
			return
		case <-t.C:
			s.CheckNow()
			t.Reset(s.cfg.ProbeInterval)
		}
	}
}

// CheckNow probes every member's address once, concurrently and each dial
// bounded by transport.DialBound, and updates its online status: a hung
// member costs one bound, not the whole sweep. Gracefully-departed
// members are not probed — their process answering the door is not a
// rejoin. Returns how many members are online after the sweep.
func (s *Server) CheckNow() int {
	s.mu.Lock()
	type target struct {
		node uint64
		addr string
	}
	targets := make([]target, 0, len(s.members))
	for _, m := range s.members {
		if m.departed {
			continue
		}
		targets = append(targets, target{m.node, m.addr})
	}
	s.mu.Unlock()

	alive := make(map[uint64]bool, len(targets))
	var aliveMu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.contain()
			if conn, err := transport.DialTimeout(s.network, t.addr, transport.DialBound); err == nil {
				_ = conn.Close() // liveness probe: the dial succeeding is the signal
				aliveMu.Lock()
				alive[t.node] = true
				aliveMu.Unlock()
			}
		}()
	}
	wg.Wait()

	s.mu.Lock()
	online := 0
	offline := 0
	now := time.Now()
	var transitions []obs.Event
	for node, m := range s.members {
		if m.departed {
			continue
		}
		was := m.online
		if alive[node] {
			m.online = true
			m.lastSeen = now
			online++
			if !was {
				transitions = append(transitions, obs.Event{Kind: obs.EvMemberOnline, Peer: m.addr, Reason: "probe"})
			}
			continue
		}
		m.online = false
		offline++
		if was {
			transitions = append(transitions, obs.Event{Kind: obs.EvMemberOffline, Peer: m.addr, Reason: "probe"})
		}
	}
	s.mu.Unlock()
	for _, e := range transitions {
		s.cfg.Journal.Append(e)
	}
	s.sweeps.Inc()
	s.sweepOnline.Add(uint64(online))
	s.sweepOffline.Add(uint64(offline))
	return online
}

// Close stops the server and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopProbe)
	if s.ring != nil {
		_ = s.ring.Close() // chord Close is idempotent and never fails meaningfully
	}
	// Unblocks the accept loop; its own error is the shutdown signal.
	_ = s.listener.Close()
	s.wg.Wait()
	return nil
}
