package core

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
)

// heldSelect is MaxCount whose first Select waits until release is
// closed, after closing entered: it holds a reconfiguration between the
// snapshot of the peer set and the edit that applies the picks.
type heldSelect struct {
	reconfig.MaxCount
	once             sync.Once
	entered, release chan struct{}
}

func newHeldSelect() *heldSelect {
	return &heldSelect{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *heldSelect) Select(obs []reconfig.Observation, k int) []reconfig.Observation {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.MaxCount.Select(obs, k)
}

// queryAsync issues a keyword query from n and returns the channel its
// result arrives on.
func queryAsync(n *Node, keyword string) <-chan *QueryResult {
	done := make(chan *QueryResult, 1)
	go func() {
		res, _ := n.Query(&agent.KeywordAgent{Query: keyword}, QueryOptions{
			Timeout: 2 * time.Second, WaitAnswers: 1, SkipLocal: true,
		})
		done <- res
	}()
	return done
}

// idPeer is n as a peer entry with its identity, so Rejoin looks it up.
func idPeer(n *Node) Peer { return Peer{ID: n.ID(), Addr: n.Addr()} }

// TestPeerEditReconfigureKeepsDepart: a Depart that arrives while the
// base's strategy is choosing must not be undone when the choice is
// applied. b is a direct peer when the query begins and has left by the
// time the pick of d, the stranger that answered through c, lands.
func TestPeerEditReconfigureKeepsDepart(t *testing.T) {
	f := newLifecycleFleet(t)
	strat := newHeldSelect()
	a := f.node(t, "rc-a", func(cfg *Config) { cfg.Strategy = strat })
	b := f.node(t, "rc-b", nil)
	c := f.node(t, "rc-c", nil)
	d := f.node(t, "rc-d", nil)
	if _, err := d.store.Put(&storm.Object{Name: "hit", Keywords: []string{"want"}}); err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{{Addr: b.Addr()}, {Addr: c.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}})
	c.SetPeers([]Peer{{Addr: d.Addr()}})
	d.SetPeers(nil)

	done := queryAsync(a, "want")
	<-strat.entered
	if err := b.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitUntil(t, "a to handle b's Depart", func() bool { return !hasPeer(a, b.Addr()) })
	close(strat.release)
	if res := <-done; res == nil || !res.Reconfigured {
		t.Fatalf("query = %+v, want d promoted", res)
	}

	if hasPeer(a, b.Addr()) || !hasPeer(a, c.Addr()) || !hasPeer(a, d.Addr()) {
		t.Fatalf("peers after reconfiguration = %v, want c kept, d added and the leaver out", a.PeerAddrs())
	}
	if got := countEvents(a, obs.EvPeerDropped, b.Addr(), ""); got != 1 {
		t.Fatalf("leaver dropped %d times, want once", got)
	}
}

// TestPeerEditLeaveDuringReconfigure: a node that leaves while its own
// query reconfigures holds no peers afterwards — neither the peers it
// held when the query began nor the answering stranger the strategy
// picks.
func TestPeerEditLeaveDuringReconfigure(t *testing.T) {
	f := newLifecycleFleet(t)
	strat := newHeldSelect()
	a := f.node(t, "lr-a", func(cfg *Config) { cfg.Strategy = strat })
	b := f.node(t, "lr-b", nil)
	c := f.node(t, "lr-c", nil)
	if _, err := c.store.Put(&storm.Object{Name: "hit", Keywords: []string{"want"}}); err != nil {
		t.Fatal(err)
	}
	a.SetPeers([]Peer{{Addr: b.Addr()}})
	b.SetPeers([]Peer{{Addr: c.Addr()}})
	c.SetPeers(nil)

	done := queryAsync(a, "want")
	<-strat.entered
	if err := a.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	close(strat.release)
	if res := <-done; res == nil || len(res.Answers) != 1 {
		t.Fatalf("query = %+v, want c's one answer", res)
	}
	if peers := a.PeerAddrs(); len(peers) != 0 || !a.Leaving() {
		t.Fatalf("leaver holds %v (leaving %v) after its reconfiguration", peers, a.Leaving())
	}
}

// TestPeerEditRejoinKeepsDepart: Rejoin refreshes its peers through one
// LIGLO lookup each, and a Depart that lands between a lookup and the
// refresh must stand. The reply saying b is online is read off the wire
// before b leaves and reaches Rejoin only after b's Depart was handled.
func TestPeerEditRejoinKeepsDepart(t *testing.T) {
	f := newLifecycleFleet(t)
	stub := &heldReplyNet{Network: f.nw, server: f.srv.Addr()}
	a := f.node(t, "rj-a", func(cfg *Config) { cfg.Network = stub })
	b := f.node(t, "rj-b", nil)
	c := f.node(t, "rj-c", nil)
	a.SetPeers([]Peer{idPeer(b), idPeer(c)})
	b.SetPeers([]Peer{{Addr: a.Addr()}})

	fetched, release := stub.arm(1) // Rejoin's own call passes; b's lookup is held
	done := make(chan error, 1)
	go func() { done <- a.Rejoin() }()
	<-fetched
	if err := b.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitUntil(t, "a to handle b's Depart", func() bool { return !hasPeer(a, b.Addr()) })
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if hasPeer(a, b.Addr()) || !hasPeer(a, c.Addr()) {
		t.Fatalf("peers after Rejoin = %v, want %s only", a.PeerAddrs(), c.Addr())
	}
	if got := countEvents(a, obs.EvPeerDropped, b.Addr(), ""); got != 1 {
		t.Fatalf("leaver dropped %d times, want once", got)
	}
}

// replayPeers folds a node's peer-added and peer-dropped events into the
// set they describe, failing on an add of a held address or a drop of an
// absent one; it returns the set and the reasons seen.
func replayPeers(t *testing.T, n *Node) (map[string]bool, map[string]bool) {
	t.Helper()
	set, reasons := make(map[string]bool), make(map[string]bool)
	for _, e := range events(n) {
		switch e.Kind {
		case obs.EvPeerAdded:
			if set[e.Peer] {
				t.Fatalf("%s: %s added twice (%s)", n.Addr(), e.Peer, e.Reason)
			}
			set[e.Peer] = true
		case obs.EvPeerDropped:
			if !set[e.Peer] {
				t.Fatalf("%s: %s dropped while absent (%s)", n.Addr(), e.Peer, e.Reason)
			}
			delete(set, e.Peer)
		default:
			continue
		}
		if e.Reason == "reconfig" && (e.Query == "" || e.Strategy == "") {
			t.Fatalf("%s: reconfig event without query or strategy: %+v", n.Addr(), e)
		}
		reasons[e.Kind.String()+"/"+e.Reason] = true
	}
	return set, reasons
}

// TestPeerEditJournalReplays drives a node through every way its peer
// set changes — join, topology, AddPeer, reconfiguration, sweep, repair,
// Depart and its hint, Rejoin (an offline peer and a moved one), Leave
// and a second Join — and checks that every node's journal, replayed,
// is its peer set: each address added or dropped is journalled once,
// with the reason of the edit that made the change.
func TestPeerEditJournalReplays(t *testing.T) {
	f := newLifecycleFleet(t)
	names := []string{"b", "c", "d", "e", "g", "h", "a"} // a joins last, so LIGLO hands it peers
	nodes := make(map[string]*Node)
	for _, name := range names {
		nodes[name] = f.node(t, "jr-"+name, nil)
	}
	a, b, c, d, e, g, h := nodes["a"], nodes["b"], nodes["c"], nodes["d"], nodes["e"], nodes["g"], nodes["h"]
	if _, err := d.store.Put(&storm.Object{Name: "hit", Keywords: []string{"want"}}); err != nil {
		t.Fatal(err)
	}

	a.SetPeers([]Peer{idPeer(b), idPeer(c)})            // topology
	b.SetPeers([]Peer{idPeer(a), idPeer(d), idPeer(g)}) // d is reached through b; g is b's to offer
	c.SetPeers([]Peer{idPeer(a), idPeer(h)})            // h is c's hint when it leaves
	if !a.AddPeer(idPeer(e)) {                          // added
		t.Fatal("AddPeer refused a peer with room for it")
	}
	if res := <-queryAsync(a, "want"); res == nil || !res.Reconfigured { // reconfig adds d
		t.Fatalf("query = %+v, want d promoted", res)
	}
	_ = e.Close() // e crashes
	f.nw.Drop(e.Addr())
	if got := sweep(a, 200*time.Millisecond); got != 1 { // unresponsive
		t.Fatalf("sweep dropped %d, want e", got)
	}
	if got := a.RepairRound("test", time.Second); got != 1 || !hasPeer(a, g.Addr()) { // repair adopts g from b's list
		t.Fatalf("repair added %d, peers %v; want g", got, a.PeerAddrs())
	}
	if err := c.Leave(); err != nil { // depart, then depart-hint adopts h
		t.Fatalf("Leave: %v", err)
	}
	waitUntil(t, "a to adopt c's hint", func() bool { return hasPeer(a, h.Addr()) })

	// Rejoin: g crashes and is swept offline at LIGLO; h restarts at a
	// new address under its old identity.
	_ = g.Close()
	f.nw.Drop(g.Addr())
	f.srv.CheckNow()
	_ = h.Close()
	f.nw.Drop(h.Addr())
	st, err := storm.Open(filepath.Join(t.TempDir(), "h2.storm"), storm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h2, err := NewNode(Config{Network: f.nw, ListenAddr: "jr-h2", Store: st, MaxPeers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h2.Close() })
	h2.AdoptIdentity(h.ID())
	if err := h2.Rejoin(); err != nil {
		t.Fatalf("moved node's Rejoin: %v", err)
	}
	if err := a.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if hasPeer(a, g.Addr()) || hasPeer(a, h.Addr()) || !hasPeer(a, h2.Addr()) {
		t.Fatalf("peers after Rejoin = %v, want g gone and h at %s", a.PeerAddrs(), h2.Addr())
	}

	if err := a.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := a.Join([]string{f.srv.Addr()}); err != nil {
		t.Fatalf("Join after Leave: %v", err)
	}

	for _, n := range []*Node{a, b, c, d, h2} {
		set, _ := replayPeers(t, n)
		held := n.PeerAddrs()
		if len(set) != len(held) {
			t.Fatalf("%s: journal replays to %v, holds %v", n.Addr(), set, held)
		}
		for _, addr := range held {
			if !set[addr] {
				t.Fatalf("%s: journal replays to %v, holds %v", n.Addr(), set, held)
			}
		}
	}
	_, reasons := replayPeers(t, a)
	for _, want := range []string{
		"peer-added/join", "peer-dropped/topology", "peer-added/topology", "peer-added/added",
		"peer-added/reconfig", "peer-dropped/unresponsive", "peer-added/repair",
		"peer-dropped/depart", "peer-added/depart-hint",
		"peer-dropped/offline", "peer-added/offline", "peer-dropped/leave",
	} {
		if !reasons[want] {
			t.Errorf("no %s event in a's journal; saw %v", want, reasons)
		}
	}
	if got := countEvents(a, obs.EvPeerAdded, "", "join"); got < 2 {
		t.Errorf("%d join adds, want both joins' peers", got)
	}
}
