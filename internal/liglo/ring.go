package liglo

import (
	"time"

	"bestpeer/internal/chord"
	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// RingConfig turns a LIGLO server into one member of a Chord ring that
// partitions BPID resolution by key ownership. A BPID's ring key is the
// hash of its issuing server's address, so a server owns its own
// members' keys while it lives; successor-list replication keeps those
// records resolvable at the next owner after it leaves or crashes —
// removing both the single-server capacity limit and the single point
// of failure of the paper's fixed name servers.
type RingConfig struct {
	// Join is an existing ring member to attach to; empty creates a
	// fresh ring.
	Join string
	// Successors is the chord successor-list length — also the
	// replication factor for member records. Zero selects the chord
	// default.
	Successors int
	// StabilizeEvery, FixFingersEvery and CheckPredEvery are the chord
	// maintenance cadences; zero selects the chord defaults.
	StabilizeEvery  time.Duration
	FixFingersEvery time.Duration
	CheckPredEvery  time.Duration
	// ReplicateEvery is the anti-entropy cadence: how often the full
	// record set is re-pushed to the current successors. Zero defaults
	// to 2s; negative disables the loop (ReplicateNow stays available).
	ReplicateEvery time.Duration
}

// Routing outcomes for a BPID in ring mode.
const (
	routeLocal    = iota // our own member table
	routeForeign         // we own the key: serve from the replica table
	routeRedirect        // another server owns the key
)

// startRing builds and starts the server's chord node, then the
// replication loop. Called from NewServer after the listener is up —
// chord RPCs to this server dispatch through the same accept loop.
func (s *Server) startRing() error {
	rc := s.cfg.Ring
	s.ring = chord.New(s.network, s.Addr(), chord.Config{
		Successors:      rc.Successors,
		StabilizeEvery:  rc.StabilizeEvery,
		FixFingersEvery: rc.FixFingersEvery,
		CheckPredEvery:  rc.CheckPredEvery,
		Metrics:         s.metrics,
		Journal:         s.cfg.Journal,
	})
	if rc.Join == "" {
		s.ring.Create()
	} else if err := s.ring.Join(rc.Join); err != nil {
		return err
	}
	every := rc.ReplicateEvery
	if every == 0 {
		every = 2 * time.Second
	}
	if every > 0 {
		s.replicateEvery = every
		s.wg.Add(1)
		go s.replicateLoop()
	}
	return nil
}

// Ring exposes the server's chord node — nil outside ring mode. Hosts
// use it for admin snapshots; tests use it to force convergence.
func (s *Server) Ring() *chord.Node { return s.ring }

// routeID decides who serves a request for id. Outside ring mode this
// is the legacy rule: local members only, ErrWrongHome otherwise. In
// ring mode a foreign BPID hashes to a ring position; we serve it from
// the replica table when we own that position and redirect to the owner
// otherwise. Must be called without s.mu held — resolving the owner can
// take ring RPCs.
func (s *Server) routeID(id wire.BPID) (int, chord.NodeRef, chord.Key, error) {
	if id.LIGLO == s.Addr() {
		return routeLocal, chord.NodeRef{}, 0, nil
	}
	if s.ring == nil {
		return 0, chord.NodeRef{}, 0, ErrWrongHome
	}
	key := chord.HashString(id.LIGLO)
	if s.ring.Owns(key) {
		return routeForeign, chord.NodeRef{}, key, nil
	}
	owner, _, err := s.ring.FindOwner(key)
	if err != nil {
		return 0, chord.NodeRef{}, key, err
	}
	if owner.Addr == s.Addr() {
		return routeForeign, chord.NodeRef{}, key, nil
	}
	return routeRedirect, owner, key, nil
}

// redirectReply names the owning server for a key we do not own.
func (s *Server) redirectReply(op string, owner chord.NodeRef, key chord.Key) *wire.Envelope {
	s.redirects.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvRingRedirected, Peer: owner.Addr, Reason: op})
	return reply(wire.KindRingRedirect, wire.Marshal(&redirectMsg{
		Version: ringRedirectVersion, Addr: owner.Addr, Key: uint64(key),
	}))
}

// foreignRejoin serves a rejoin for a replicated record we own.
func (s *Server) foreignRejoin(r *rejoinReq) *wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.foreign[r.ID.String()]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{Err: ErrUnknown.Error()}))
	}
	rec.Addr = r.Addr
	rec.Online = true
	rec.Departed = false
	s.foreign[r.ID.String()] = rec
	s.rejoins.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberOnline, Peer: r.Addr, Reason: "rejoin"})
	return reply(wire.KindLigloStatus, wire.Marshal(&rejoinResp{}))
}

// foreignLookup serves a lookup from the replica table.
func (s *Server) foreignLookup(r *lookupReq) *wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups.Inc()
	rec, ok := s.foreign[r.ID.String()]
	if !ok {
		return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{Found: false}))
	}
	return reply(wire.KindLigloStatus, wire.Marshal(&lookupResp{
		Found: true, Addr: rec.Addr, Online: rec.Online,
	}))
}

// foreignDeregister marks a replicated record gracefully departed.
func (s *Server) foreignDeregister(r *deregisterReq) *wire.Envelope {
	s.mu.Lock()
	rec, ok := s.foreign[r.ID.String()]
	if !ok {
		s.mu.Unlock()
		return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{Err: ErrUnknown.Error()}))
	}
	rec.Online = false
	rec.Departed = true
	s.foreign[r.ID.String()] = rec
	addr := rec.Addr
	s.mu.Unlock()
	s.deregisters.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvMemberDeregistered, Peer: addr})
	return reply(wire.KindLigloStatus, wire.Marshal(&deregisterResp{}))
}

// handleReplicate folds a replication batch into the replica table.
// Records for our own members are skipped — the primary table is the
// authority for those.
func (s *Server) handleReplicate(m *replicateMsg) *wire.Envelope {
	s.mu.Lock()
	for _, r := range m.Records {
		if r.ID.LIGLO == s.Addr() {
			continue
		}
		s.foreign[r.ID.String()] = r
	}
	s.mu.Unlock()
	return reply(wire.KindRingReplicateOK, wire.Marshal(&replicateOK{Version: ringReplicateVersion}))
}

// snapshotRecords collects everything this server can vouch for: its
// own members plus the replicas it already holds, so replication chains
// survive consecutive failures.
func (s *Server) snapshotRecords() []RingRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RingRecord, 0, len(s.members)+len(s.foreign))
	for node, m := range s.members {
		out = append(out, RingRecord{
			ID:       wire.BPID{LIGLO: s.Addr(), Node: node},
			Addr:     m.addr,
			Online:   m.online,
			Departed: m.departed,
		})
	}
	for _, r := range s.foreign {
		out = append(out, r)
	}
	return out
}

// ForeignRecords returns how many replicated records the server holds.
func (s *Server) ForeignRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.foreign)
}

// ReplicateNow pushes the full record set to every current ring
// successor and returns how many targets acknowledged.
func (s *Server) ReplicateNow() int {
	if s.ring == nil {
		return 0
	}
	records := s.snapshotRecords()
	if len(records) == 0 {
		return 0
	}
	acked := 0
	for _, succ := range s.ring.Snapshot().Successors {
		if succ.Addr == s.Addr() {
			continue
		}
		if err := s.replicateTo(succ.Addr, records); err != nil {
			continue
		}
		acked++
		s.replications.Inc()
		s.cfg.Journal.Append(obs.Event{
			Kind: obs.EvRingReplicated, Peer: succ.Addr, Count: len(records),
		})
	}
	return acked
}

// replicateTo ships one record batch to a successor.
func (s *Server) replicateTo(addr string, records []RingRecord) error {
	req := reply(wire.KindRingReplicate, wire.Marshal(&replicateMsg{
		Version: ringReplicateVersion, From: s.Addr(), Records: records,
	}))
	resp, err := transport.Call(s.network, addr, req, wire.KindRingReplicateOK)
	if err != nil {
		return err
	}
	m, err := unmarshal(resp.Body, new(replicateOK), "replicate-ok")
	if err != nil {
		return err
	}
	if m.Err != "" {
		return ErrBadRequest
	}
	return nil
}

// replicateLoop is the anti-entropy pump: the record set re-replicates
// on a cadence so successor churn and record mutations both converge
// without per-mutation bookkeeping.
func (s *Server) replicateLoop() {
	defer s.wg.Done()
	defer s.contain()
	t := time.NewTicker(s.replicateEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopProbe:
			return
		case <-t.C:
			s.ReplicateNow()
		}
	}
}

// Leave departs the ring gracefully: the record set is pushed to the
// successors one last time, the chord neighbors get their handoff, and
// the server shuts down. Members keep their BPIDs — the new key owner
// serves them from its replica table.
func (s *Server) Leave() error {
	if s.ring != nil {
		s.ReplicateNow()
		_ = s.ring.Leave() // best-effort goodbye; failure detection covers the rest
	}
	return s.Close()
}
