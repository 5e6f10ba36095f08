package core

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// This file implements the node's membership lifecycle beyond join:
// graceful leave (Depart announcements plus LIGLO deregistration) and
// crash repair (a failure-detector-driven loop that drops dead peers and
// backfills overlay degree). Together they give the overlay the three
// exits the paper's churn model needs — leave, crash, and
// detection-plus-repair — without changing the query path at all.

// maxHintStash bounds the replacement-neighbor hints retained from
// Depart announcements for later repair rounds.
const maxHintStash = 16

// Leave performs a graceful departure: every direct peer receives a
// versioned Depart announcement carrying replacement-neighbor hints (the
// node's other peers that answer a probe, so receivers can heal the hole
// without a LIGLO round trip), the peer set is cleared, and then the home
// LIGLO is told to mark this member offline. The node stays alive — it
// can still serve and issue queries, and Join/Rejoin bring it back — but
// until then it adopts no peers and refuses every probe and peer-list ask
// with a Depart, so no repair round anywhere re-adopts it, whether or not
// the deregistration got through. Leave is idempotent; the returned error
// is the LIGLO deregistration outcome (the overlay-side departure is
// complete regardless, transport permitting).
func (n *Node) Leave() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errNodeClosed
	}
	if n.leaving {
		n.mu.Unlock()
		return nil
	}
	n.leaving = true
	id := n.id
	n.mu.Unlock()
	// Leaving is already set, so nothing can be added from here on and
	// the set clears for good.
	_, old := n.editPeers(obs.Event{Reason: "leave"}, func([]Peer) []Peer { return nil })

	// Hints are the departing node's other peers — each recipient gets
	// candidates it can adopt to replace the lost edge — but only those
	// that answer a probe: a peer that has itself just left refuses it.
	answered := n.probeAll(old, probeTimeout)
	for i, p := range old {
		hints := make([]Peer, 0, maxDepartHints)
		for j := 1; j < len(old) && len(hints) < maxDepartHints; j++ {
			if h := (i + j) % len(old); answered[h] {
				hints = append(hints, old[h])
			}
		}
		n.departTo(p.Addr, wire.NewMsgID(), hints)
	}

	reason := "deregistered"
	var derr error
	if !id.IsZero() {
		if derr = n.lgc.Deregister(id); derr != nil {
			reason = "deregister-failed"
		}
	}
	n.journal.Append(obs.Event{Kind: obs.EvLeft, Count: len(old), Reason: reason})
	n.log.Info("left bestpeer network", "peers_told", len(old), "liglo", reason)
	return derr
}

// departTo sends addr this node's Depart. Leave sends one to each peer,
// under a fresh ID and with hints; a node that has left answers a probe
// or peer-list ask with one under the ask's ID and without hints, so the
// asker's wait fails at once and any edge it still holds drops.
func (n *Node) departTo(addr string, id wire.MsgID, hints []Peer) {
	n.send(addr, &wire.Envelope{
		Kind: wire.KindDepart, ID: id, TTL: 1,
		From: n.Addr(), To: addr,
		Body: wire.Marshal(&departMsg{Version: departVersion, ID: n.ID(), Hints: hints}),
	})
	n.m.departsSent.Inc()
}

// Leaving reports whether Leave has run (and no Join/Rejoin since).
func (n *Node) Leaving() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaving
}

// handleDepart processes a peer's graceful-leave announcement: the edge
// drops immediately (no sweep timeout), every per-peer resource —
// transport send queue, suspect state, learned routing counters, cached
// answers it served — is released, and the carried replacement hints are
// adopted or stashed for the repair loop. The hints need no probe here:
// the leaver sent only peers that answered its own.
func (n *Node) handleDepart(env *wire.Envelope) {
	m, err := unmarshal(env.Body, new(departMsg), "depart")
	if err != nil || env.From == "" {
		return
	}
	from := env.From
	n.m.departsReceived.Inc()

	n.journal.Append(obs.Event{Kind: obs.EvDepartReceived, Peer: from, Count: len(m.Hints)})
	_, dropped := n.editPeers(obs.Event{Reason: "depart"}, func(cur []Peer) []Peer {
		return slices.DeleteFunc(cur, func(p Peer) bool { return p.Addr == from })
	})
	n.release(from)
	if n.Leaving() {
		return
	}

	// Adopt the hints while there is room; stash the rest so a later
	// repair round can use them without a LIGLO round trip.
	added := 0
	var stash []Peer
	me := n.Addr()
	for _, h := range m.Hints {
		if h.Addr == "" || h.Addr == me || h.Addr == from {
			continue
		}
		if n.addPeerReason(h, "depart-hint") {
			added++
		} else {
			stash = append(stash, h)
		}
	}
	if len(stash) > 0 {
		n.stashHints(stash)
	}
	if len(dropped) > 0 && added == 0 {
		n.kickRepair("depart")
	}
}

// handlePeerList serves this node's direct peers (minus the requester) —
// the neighbor-of-neighbor candidates a repairing node backfills from.
func (n *Node) handlePeerList(env *wire.Envelope) {
	peers := n.Peers()
	out := peers[:0:0]
	for _, p := range peers {
		if p.Addr == env.From {
			continue
		}
		out = append(out, p)
	}
	n.send(env.From, &wire.Envelope{
		Kind: wire.KindPeerListOK, ID: env.ID, TTL: 1,
		From: n.Addr(), To: env.From,
		Body: wire.Marshal(&peerListResp{Peers: out}),
	})
}

// PeersOfPeer asks a direct peer for its current peer list, synchronously.
func (n *Node) PeersOfPeer(addr string, timeout time.Duration) ([]Peer, bool) {
	env, ok := n.ask(addr, wire.KindPeerList, wire.KindPeerListOK, nil, 1, timeout)
	if !ok {
		return nil, false
	}
	r, err := unmarshal(env.Body, new(peerListResp), "peer-list")
	if err != nil {
		return nil, false
	}
	return r.Peers, true
}

// kickRepair wakes the repair loop. Non-blocking: concurrent triggers
// while a round is pending coalesce into that round.
func (n *Node) kickRepair(reason string) {
	select {
	case n.repairKick <- reason:
	default:
	}
}

// stashHints retains replacement-neighbor hints for later repair rounds,
// deduplicated and bounded (newest win).
func (n *Node) stashHints(hs []Peer) {
	n.hintMu.Lock()
	defer n.hintMu.Unlock()
	for _, h := range hs {
		dup := false
		for _, e := range n.hintStash {
			if e.Addr == h.Addr {
				dup = true
				break
			}
		}
		if !dup {
			n.hintStash = append(n.hintStash, h)
		}
	}
	if len(n.hintStash) > maxHintStash {
		n.hintStash = append([]Peer(nil), n.hintStash[len(n.hintStash)-maxHintStash:]...)
	}
}

// popHint takes the oldest stashed hint, if any.
func (n *Node) popHint() (Peer, bool) {
	n.hintMu.Lock()
	defer n.hintMu.Unlock()
	if len(n.hintStash) == 0 {
		return Peer{}, false
	}
	h := n.hintStash[0]
	n.hintStash = n.hintStash[1:]
	return h, true
}

// StartRepair launches the crash-repair loop: it wakes on failure-
// detector kicks (transport suspect transitions, departs)
// and every interval as a safety net, drops suspect peers that fail a
// probe, and backfills the overlay degree toward MaxPeers — stashed
// Depart hints first, then neighbor-of-neighbor candidates, then the
// home LIGLO. Kicked rounds wait a jittered pause first so a correlated
// failure does not stampede every survivor onto the same candidates at
// the same instant. The returned stop function terminates the loop and
// blocks until it has exited.
func (n *Node) StartRepair(interval, probeTimeout time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	// Deterministic per-node jitter: seeded by the listen address, so
	// simulations replay identically while distinct nodes still spread.
	h := fnv.New64a()
	_, _ = h.Write([]byte(n.Addr())) // fnv.Write never fails
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	go func() {
		defer close(finished)
		defer n.containPanic("repair")
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			var reason string
			select {
			case <-done:
				return
			case reason = <-n.repairKick:
				jitter := time.Duration(rng.Int63n(int64(interval/10) + 1))
				t := time.NewTimer(jitter)
				select {
				case <-done:
					t.Stop()
					return
				case <-t.C:
				}
			case <-ticker.C:
				reason = "periodic"
			}
			n.RepairRound(reason, probeTimeout)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// probeAll probes peers concurrently, so N dead peers cost one probe
// timeout, not N, and reports which answered.
func (n *Node) probeAll(peers []Peer, probeTO time.Duration) []bool {
	answered := make([]bool, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.containPanic("probe")
			answered[i] = n.Probe(p.Addr, probeTO)
		}()
	}
	wg.Wait()
	return answered
}

// dropDead probes the direct peers that suspect picks and drops the
// unresponsive ones, journalled with reason, releasing each one's
// transport queue and learned routing state. The drop applies to the set
// as it stands once the probes are back: a peer something else dropped
// meanwhile is neither journalled nor released twice. It returns how
// many peers were dropped.
func (n *Node) dropDead(suspect func(Peer) bool, probeTO time.Duration, reason string) int {
	suspects := slices.DeleteFunc(n.Peers(), func(p Peer) bool { return !suspect(p) })
	answered := n.probeAll(suspects, probeTO)
	var dead []string
	for i, p := range suspects {
		if !answered[i] {
			dead = append(dead, p.Addr)
		}
	}
	if len(dead) == 0 {
		return 0
	}
	_, dropped := n.editPeers(obs.Event{Reason: reason}, func(cur []Peer) []Peer {
		return slices.DeleteFunc(cur, func(p Peer) bool { return slices.Contains(dead, p.Addr) })
	})
	for _, p := range dropped {
		n.release(p.Addr)
	}
	return len(dropped)
}

// release frees what this node holds for an address it no longer talks
// to: the transport send queue and suspect state, and the routing
// counters and cached answers learned from it.
func (n *Node) release(addr string) {
	n.msgr.Forget(addr)
	n.qr.ForgetNeighbor(addr)
}

// held returns the addresses no backfill may adopt — this node's and its
// current peers' — and the room left in the peer set.
func (n *Node) held() (map[string]bool, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	have := map[string]bool{n.Addr(): true}
	for _, p := range n.peers {
		have[p.Addr] = true
	}
	return have, n.cfg.MaxPeers - len(n.peers)
}

// RepairRound runs one repair round (the loop's body, exported so tests
// and operators can force one): probe currently-suspect peers and drop
// the dead, then backfill the degree deficit. It returns how many peers
// were added.
func (n *Node) RepairRound(reason string, probeTO time.Duration) int {
	if n.isClosed() || n.Leaving() {
		return 0
	}
	if probeTO <= 0 {
		probeTO = probeTimeout
	}

	// Phase 1: validate suspects. Only peers the transport's failure
	// detector already distrusts are probed, so a healthy overlay pays
	// nothing here. Failing (threshold crossed, nothing delivered since)
	// rather than the suspect backoff window — the window can expire
	// between the failure and this round sampling it, and a dead peer must
	// not escape detection by out-waiting a 100 ms backoff.
	dropped := n.dropDead(func(p Peer) bool { return n.msgr.Failing(p.Addr) }, probeTO, "suspect")

	// Phase 2: backfill the deficit from stashed hints, then neighbor-of-
	// neighbor candidates, then the home LIGLO (Replenish). Each source
	// can be stale — under churn gossip routinely names dead generations,
	// and a registry list can name a member that has just left — and
	// adopting blind lets the whole fleet trade stale addresses back and
	// forth until every peer set is garbage. So a candidate is adopted
	// only if it answers a probe: a crashed one cannot, and one that has
	// left refuses it. A peer held when the round starts is no candidate,
	// even if its Depart drops it meanwhile: a probe it answered before
	// leaving must not outlive the Depart.
	have, deficit := n.held()
	started := deficit
	added := 0
	adopt := func(c Peer) {
		if !have[c.Addr] && n.Probe(c.Addr, probeTO) && n.addPeerReason(c, "repair") {
			have[c.Addr] = true
			added++
			deficit--
		}
	}
	for deficit > 0 {
		h, ok := n.popHint()
		if !ok {
			break
		}
		adopt(h)
	}
	for _, p := range n.Peers() {
		if deficit <= 0 {
			break
		}
		cands, _ := n.PeersOfPeer(p.Addr, probeTO)
		for _, c := range cands {
			if deficit <= 0 {
				break
			}
			adopt(c)
		}
	}
	if deficit > 0 {
		if a, err := n.Replenish(probeTO); err == nil {
			added += a
		}
	}

	n.m.repairRounds.Inc()
	n.m.repairAdded.Add(uint64(added))
	if dropped > 0 || started > 0 || added > 0 {
		n.journal.Append(obs.Event{Kind: obs.EvRepair, Reason: reason, Count: added, K: started})
	}
	if added > 0 {
		n.log.Info("repaired peer set", "trigger", reason, "added", added, "dropped", dropped)
	}
	return added
}
