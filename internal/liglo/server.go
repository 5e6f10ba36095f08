package liglo

import (
	"cmp"
	"net"
	"slices"
	"strings"
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
	// rejected with errFull so the node seeks another server. Zero means
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

// record is one member entry, issued here or replicated from another
// ring server: the state that travels between servers, plus when this
// server last heard from the member itself (zero for a replica it has
// only been pushed). Departed marks an explicit graceful leave
// (Deregister): the member's process often stays alive so it can Rejoin
// later, so the liveness sweep must not take a successful dial as
// evidence the member is back. Only Rejoin clears it.
type record struct {
	ringRecord
	lastSeen time.Time
}

// Server is one LIGLO server: it issues BPIDs, records member addresses
// and validates their liveness.
type Server struct {
	network  transport.Network
	listener net.Listener
	cfg      ServerConfig

	mu sync.Mutex
	// nextID is the last Node issued, and so also how many members this
	// server issued: records are never deleted, and replicas under this
	// server's own address are refused (handleReplicate).
	nextID uint64
	// members holds every record the server knows: the BPIDs it issued
	// and, in ring mode, the replicas other servers pushed. It serves
	// the ones it answers for (answersFor) and redirects the rest.
	members map[wire.BPID]*record
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
		members:   make(map[wire.BPID]*record),
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

// Members returns the number of members this server issued.
func (s *Server) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.nextID)
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

	if s.cfg.Capacity > 0 && s.nextID >= uint64(s.cfg.Capacity) {
		s.rejected.Inc()
		return reply(wire.KindLigloRegisterd, wire.Marshal(&registerResp{Err: errFull.Error()}))
	}
	s.nextID++
	id := wire.BPID{LIGLO: s.Addr(), Node: s.nextID}
	peers := s.peerListLocked(id, s.cfg.InitialPeers)
	s.members[id] = &record{ringRecord: ringRecord{ID: id, Addr: r.Addr, Online: true}, lastSeen: time.Now()}
	s.registers.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberRegistered, Peer: r.Addr})

	return reply(wire.KindLigloRegisterd, wire.Marshal(&registerResp{ID: id, Peers: peers}))
}

// peerListLocked selects up to limit online members other than exclude
// as a member's direct peers, most recently seen first. In ring mode the
// replicas count too: without them a fleet spread across ring servers
// would bootstrap with zero connectivity. Replicas this server has not
// heard from sort last. Caller holds s.mu.
func (s *Server) peerListLocked(exclude wire.BPID, limit int) []PeerInfo {
	var online []*record
	for _, rec := range s.members {
		if rec.Online && !rec.Departed && rec.ID != exclude {
			online = append(online, rec)
		}
	}
	slices.SortFunc(online, func(a, b *record) int {
		return cmp.Or(b.lastSeen.Compare(a.lastSeen),
			strings.Compare(a.ID.LIGLO, b.ID.LIGLO), cmp.Compare(a.ID.Node, b.ID.Node))
	})
	peers := make([]PeerInfo, min(len(online), limit))
	for i := range peers {
		peers[i] = PeerInfo{ID: online[i].ID, Addr: online[i].Addr}
	}
	return peers
}

func (s *Server) handleRejoin(r *rejoinReq) *wire.Envelope {
	redirect, err := s.route("rejoin", r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{Err: err.Error()}))
	}
	if redirect != nil {
		return redirect
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.members[r.ID]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{Err: errUnknown.Error()}))
	}
	cameBack := !rec.Online
	rec.Addr = r.Addr
	rec.Online = true
	rec.Departed = false // an explicit rejoin ends a graceful departure
	rec.lastSeen = time.Now()
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
	redirect, err := s.route("deregister", r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{Err: err.Error()}))
	}
	if redirect != nil {
		return redirect
	}
	s.mu.Lock()
	rec, ok := s.members[r.ID]
	if !ok {
		s.mu.Unlock()
		return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{Err: errUnknown.Error()}))
	}
	wasOnline := rec.Online
	rec.Online = false
	rec.Departed = true
	rec.lastSeen = time.Now()
	addr := rec.Addr
	s.mu.Unlock()
	s.deregisters.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberDeregistered, Peer: addr})
	if wasOnline {
		s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberOffline, Peer: addr, Reason: "deregister"})
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{}))
}

func (s *Server) handleLookup(r *lookupReq) *wire.Envelope {
	redirect, err := s.route("lookup", r.ID)
	if err != nil {
		return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{Err: err.Error()}))
	}
	if redirect != nil {
		return redirect
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups.Inc()
	rec, ok := s.members[r.ID]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{Found: false}))
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{
		Found:  true,
		Addr:   rec.Addr,
		Online: rec.Online,
	}))
}

// handlePeers serves a fresh list of online members, excluding the
// requester, most-recently-seen first. This is how a member that lost
// peers encounters new ones without re-registering.
func (s *Server) handlePeers(r *peersReq) *wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := s.cfg.InitialPeers
	if r.Max > 0 {
		limit = r.Max
	}
	return reply(wire.KindLigloPeersList, wire.Marshal(&peersResp{Peers: s.peerListLocked(r.Self, limit)}))
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

// CheckNow probes the address of every record the server answers for
// once, concurrently and each dial bounded by transport.DialBound, and
// updates the online status of exactly the records it probed: a hung
// member costs one bound, not the whole sweep, and a member that
// registers, rejoins or leaves meanwhile keeps what it said.
// Gracefully-departed members are not probed — their process answering
// the door is not a rejoin. Returns how many probed members answered.
func (s *Server) CheckNow() int {
	s.mu.Lock()
	targets := make([]ringRecord, 0, len(s.members))
	for _, rec := range s.members {
		if !rec.Departed {
			targets = append(targets, rec.ringRecord)
		}
	}
	s.mu.Unlock()
	targets = slices.DeleteFunc(targets, func(t ringRecord) bool { return !s.answersFor(t.ID) })

	alive := make([]bool, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.contain()
			if conn, err := transport.DialTimeout(s.network, t.Addr, transport.DialBound); err == nil {
				_ = conn.Close() // liveness probe: the dial succeeding is the signal
				alive[i] = true
			}
		}()
	}
	wg.Wait()

	s.mu.Lock()
	online := 0
	offline := 0
	now := time.Now()
	var transitions []obs.Event
	for i, t := range targets {
		rec := s.members[t.ID]
		if rec.Departed || rec.Addr != t.Addr {
			continue // a deregister or rejoin is newer than the dial
		}
		was := rec.Online
		if alive[i] {
			rec.Online = true
			rec.lastSeen = now
			online++
			if !was {
				transitions = append(transitions, obs.Event{Kind: obs.EvMemberOnline, Peer: rec.Addr, Reason: "probe"})
			}
			continue
		}
		rec.Online = false
		offline++
		if was {
			transitions = append(transitions, obs.Event{Kind: obs.EvMemberOffline, Peer: rec.Addr, Reason: "probe"})
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
