package core

import (
	"errors"
	"sync"
	"time"

	"bestpeer/internal/agent"
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

// Replenish asks the node's home LIGLO server for fresh online peers to
// fill the gap between the current peer set and MaxPeers — the paper's
// "replace those peers by new peers that it encounters", with LIGLO as
// the encounter point. Like every other repair source, a candidate is
// adopted only if it answers a probe within probeTO (probeTimeout when
// zero), so a member that left after the server answered — or whose
// deregistration never reached it — stays out; and, as in RepairRound, a
// peer held when the call starts is no candidate. It returns how many
// peers were added.
func (n *Node) Replenish(probeTO time.Duration) (int, error) {
	id := n.ID()
	have, room := n.held()
	if id.IsZero() {
		return 0, errors.New("core: Replenish before Join")
	}
	if room <= 0 {
		return 0, nil
	}
	members, err := n.lgc.Peers(id.LIGLO, id, n.cfg.MaxPeers)
	if err != nil {
		return 0, err
	}
	var candidates []Peer
	for _, m := range members {
		if !have[m.Addr] {
			candidates = append(candidates, Peer{ID: m.ID, Addr: m.Addr})
		}
	}
	answered := n.probeAll(candidates, probeTO)
	added := 0
	for i, c := range candidates {
		if answered[i] && n.AddPeer(c) {
			added++
		}
	}
	if added > 0 {
		n.log.Info("replenished peers from liglo", "added", added)
	}
	return added, nil
}
