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

// answersFor reports whether this server is the authority for id: it
// issued id, or its ring owns the issuer's key. Such a record is served,
// swept and replicated from here, and no pushed replica replaces it.
// Must be called without s.mu held — the ring check takes the chord
// node's lock.
func (s *Server) answersFor(id wire.BPID) bool {
	return id.LIGLO == s.Addr() || s.ring != nil && s.ring.Owns(chord.HashString(id.LIGLO))
}

// route decides who serves a request for id: nil when this server does,
// else a redirect naming the server that owns id's ring key. Outside ring
// mode a BPID this server did not issue is errWrongHome. Must be called
// without s.mu held — resolving the owner can take ring RPCs.
func (s *Server) route(op string, id wire.BPID) (*wire.Envelope, error) {
	if s.answersFor(id) {
		return nil, nil
	}
	if s.ring == nil {
		return nil, errWrongHome
	}
	key := chord.HashString(id.LIGLO)
	owner, _, err := s.ring.FindOwner(key)
	if err != nil {
		return nil, err
	}
	if owner.Addr == s.Addr() {
		return nil, nil
	}
	s.redirects.Inc()
	s.cfg.Journal.Append(obs.Event{Kind: obs.EvRingRedirected, Peer: owner.Addr, Reason: op})
	return reply(wire.KindRingRedirect, wire.Marshal(&redirectMsg{
		Version: ringRedirectVersion, Addr: owner.Addr, Key: uint64(key),
	})), nil
}

// handleReplicate folds a replication batch into the member table. A
// pushed record never replaces one this server answers for: it is the
// authority there, and the push may be older than its own writes. A
// record it lacks is taken even so, which is how a key's new owner
// learns it — except under this server's own address, where a record it
// lacks belongs to an earlier run and nextID would issue its Node again.
func (s *Server) handleReplicate(m *replicateMsg) *wire.Envelope {
	answers := make([]bool, len(m.Records))
	for i, r := range m.Records {
		answers[i] = s.answersFor(r.ID)
	}
	s.mu.Lock()
	for i, r := range m.Records {
		rec := s.members[r.ID]
		if r.ID.LIGLO == s.Addr() || rec != nil && answers[i] {
			continue
		}
		if rec == nil {
			rec = new(record)
			s.members[r.ID] = rec
		}
		rec.ringRecord = r
	}
	s.mu.Unlock()
	return reply(wire.KindRingReplicateOK, wire.Marshal(&replicateOK{Version: ringReplicateVersion}))
}

// snapshotRecords collects every record this server holds, its own
// members and the replicas alike, so replication chains survive
// consecutive failures.
func (s *Server) snapshotRecords() []ringRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ringRecord, 0, len(s.members))
	for _, rec := range s.members {
		out = append(out, rec.ringRecord)
	}
	return out
}

// ForeignRecords returns how many replicated records the server holds:
// every record but the ones it issued.
func (s *Server) ForeignRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members) - int(s.nextID)
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
func (s *Server) replicateTo(addr string, records []ringRecord) error {
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
		return errBadRequest
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
// serves them from the replicas it holds.
func (s *Server) Leave() error {
	if s.ring != nil {
		s.ReplicateNow()
		_ = s.ring.Leave() // best-effort goodbye; failure detection covers the rest
	}
	return s.Close()
}
