package core

import (
	"errors"
	"sync"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
)

// QueryAndFetch runs a mode-2 query (peers advertise matching names
// without data) and then fetches every hinted object from its
// advertising peer, out-of-network. The returned result carries the
// fetched objects in Answers and keeps the original hints.
//
// This is the paper's second access mode end to end: better bandwidth
// utilization at the cost of a second round trip, with the documented
// race that a peer may have removed an object between hint and fetch —
// such objects are silently absent from the answers.
func (n *Node) QueryAndFetch(ag agent.Agent, opts QueryOptions) (*QueryResult, error) {
	opts.Mode = 2
	res, err := n.Query(ag, opts)
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	// Group hinted names by the advertising peer.
	type peerHints struct {
		id    []Answer
		names []string
	}
	byPeer := make(map[string]*peerHints)
	for _, h := range res.Hints {
		if h.PeerAddr == n.Addr() {
			// Local matches already carry data? No: local mode-2 results
			// are hints too; read them straight from the store.
			if obj, err := n.store.Get(h.Result.Name); err == nil {
				if data, ok := n.active.RenderObject(obj, n.cfg.AccessLevel); ok {
					h.Result.Data = data
					res.Answers = append(res.Answers, h)
				}
			}
			continue
		}
		ph, ok := byPeer[h.PeerAddr]
		if !ok {
			ph = &peerHints{}
			byPeer[h.PeerAddr] = ph
		}
		ph.id = append(ph.id, h)
		ph.names = append(ph.names, h.Result.Name)
	}
	// Fetch from all peers concurrently — each is an independent direct
	// exchange.
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for addr, ph := range byPeer {
		addr, ph := addr, ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.containPanic("fetch")
			got, err := n.Fetch(addr, ph.names, timeout)
			if err != nil {
				return // peer vanished between hint and fetch
			}
			mu.Lock()
			defer mu.Unlock()
			for _, r := range got {
				// Attribute the fetched object back to its hint.
				for _, h := range ph.id {
					if h.Result.Name == r.Name {
						h.Result.Data = r.Data
						res.Answers = append(res.Answers, h)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return res, nil
}

// StartMaintenance launches a background loop that probes every direct
// peer each interval and drops peers that do not respond — the paper's
// "simply replace those peers by new peers that it encounters", with
// replacement happening through subsequent reconfiguration. The returned
// stop function terminates the loop and blocks until it has exited.
func (n *Node) StartMaintenance(interval, probeTimeout time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer n.containPanic("maintenance")
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				n.SweepPeers(probeTimeout)
			}
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

// SweepPeers probes every direct peer concurrently and removes the
// unresponsive ones, so N dead peers cost one probe timeout, not N. It
// returns how many peers were found unresponsive. The shrink is guarded
// by the peer-set generation counter: if the set was mutated while the
// probes were in flight (a reconfiguration, a Rejoin), the stale result
// is discarded rather than clobbering the newer set.
func (n *Node) SweepPeers(probeTimeout time.Duration) int {
	n.mu.Lock()
	peers := append([]Peer(nil), n.peers...)
	gen := n.peerGen
	n.mu.Unlock()
	if len(peers) == 0 {
		return 0
	}

	responsive := make([]bool, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.containPanic("sweep")
			responsive[i] = n.Probe(p.Addr, probeTimeout)
		}()
	}
	wg.Wait()

	alive := peers[:0:0]
	for i, p := range peers {
		if responsive[i] {
			alive = append(alive, p)
		}
	}
	dropped := len(peers) - len(alive)
	if dropped > 0 {
		n.mu.Lock()
		if n.peerGen == gen {
			n.peers = alive
			n.peerGen++
			n.mu.Unlock()
			for i, p := range peers {
				if !responsive[i] {
					n.journal.Append(obs.Event{Kind: obs.EvPeerDropped, Peer: p.Addr, Reason: "unresponsive"})
					// Release the dead peer's transport queue and learned
					// routing state, then wake the repair loop to backfill.
					n.msgr.Forget(p.Addr)
					n.qr.ForgetNeighbor(p.Addr)
				}
			}
			n.kickRepair("sweep")
			n.log.Info("dropped unresponsive peers", "count", dropped)
		} else {
			n.mu.Unlock()
			n.log.Info("sweep result discarded: peer set changed underneath", "stale_dropped", dropped)
		}
	}
	return dropped
}

// Replenish asks the node's home LIGLO server for fresh online peers to
// fill the gap between the current peer set and MaxPeers — the paper's
// "replace those peers by new peers that it encounters", with LIGLO as
// the encounter point. It returns how many peers were added.
//
// The server's list is trusted — it is how a member that rejoins inside
// departedTTL comes back — but only as of when it was asked for: a
// candidate whose Depart this node handled while the reply was on its way
// was still registered when the server answered, and is passed over.
func (n *Node) Replenish() (int, error) {
	n.mu.Lock()
	id := n.id
	room := n.cfg.MaxPeers - len(n.peers)
	n.mu.Unlock()
	if id.IsZero() {
		return 0, errors.New("core: Replenish before Join")
	}
	if room <= 0 {
		return 0, nil
	}
	asked := time.Now()
	candidates, err := n.lgc.Peers(id.LIGLO, id, n.cfg.MaxPeers)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, c := range candidates {
		if c.Addr == n.Addr() || n.departedSince(c.Addr, asked) {
			continue
		}
		if n.AddPeer(Peer{ID: c.ID, Addr: c.Addr}) {
			added++
		}
	}
	if added > 0 {
		n.log.Info("replenished peers from liglo", "added", added)
	}
	return added, nil
}
