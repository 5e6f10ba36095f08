package core

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/liglo"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
)

// lifecycleFleet boots a LIGLO server plus named nodes joined to it —
// the environment every membership-lifecycle test needs.
type lifecycleFleet struct {
	nw      *transport.InProc
	srv     *liglo.Server
	metrics *obs.Registry // the server's
}

func newLifecycleFleet(t *testing.T) *lifecycleFleet {
	t.Helper()
	nw := transport.NewInProc()
	reg := obs.NewRegistry()
	srv, err := liglo.NewServer(nw, "liglo-life", liglo.ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &lifecycleFleet{nw: nw, srv: srv, metrics: reg}
}

func (f *lifecycleFleet) node(t *testing.T, name string, mutate func(cfg *Config)) *Node {
	t.Helper()
	st, err := storm.Open(filepath.Join(t.TempDir(), name+".storm"), storm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := Config{Network: f.nw, ListenAddr: name, Store: st, MaxPeers: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.Join([]string{f.srv.Addr()}); err != nil {
		t.Fatal(err)
	}
	return n
}

// events drains a node's full journal for assertions.
func events(n *Node) []obs.Event {
	evs, _, _ := n.Journal().Since(0, 0)
	return evs
}

// countEvents tallies journal entries matching kind (and, when non-empty,
// peer and reason).
func countEvents(n *Node, kind obs.EventKind, peer, reason string) int {
	count := 0
	for _, e := range events(n) {
		if e.Kind != kind {
			continue
		}
		if peer != "" && e.Peer != peer {
			continue
		}
		if reason != "" && e.Reason != reason {
			continue
		}
		count++
	}
	return count
}

func hasPeer(n *Node, addr string) bool {
	for _, p := range n.Peers() {
		if p.Addr == addr {
			return true
		}
	}
	return false
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLeaveAnnouncesDepartAndDropsEdgesWithoutSweep pins the PR's
// headline acceptance criterion: a graceful leave removes the departing
// node's edges from its neighbors immediately via Depart announcements —
// journal-asserted, with no sweep-timeout drop anywhere — deregisters
// from LIGLO, and hands each neighbor replacement hints it adopts.
func TestLeaveAnnouncesDepartAndDropsEdgesWithoutSweep(t *testing.T) {
	f := newLifecycleFleet(t)
	a := f.node(t, "life-a", nil)
	b := f.node(t, "life-b", nil)
	c := f.node(t, "life-c", nil)
	a.SetPeers([]Peer{{Addr: b.Addr()}, {Addr: c.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}})
	c.SetPeers([]Peer{{Addr: a.Addr()}})

	if err := a.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if !a.Leaving() {
		t.Fatal("Leaving() false after Leave")
	}
	if len(a.Peers()) != 0 {
		t.Fatalf("leaver kept peers: %v", a.PeerAddrs())
	}

	// Neighbors drop the edge on the Depart announcement alone — no
	// sweep ever runs in this test, so a timeout-based drop would hang
	// this wait forever.
	waitUntil(t, "b to drop the leaver", func() bool { return !hasPeer(b, a.Addr()) })
	waitUntil(t, "c to drop the leaver", func() bool { return !hasPeer(c, a.Addr()) })

	// The leaver journalled one "leave" drop per peer plus the EvLeft
	// summary with the LIGLO outcome.
	if got := countEvents(a, obs.EvPeerDropped, "", "leave"); got != 2 {
		t.Fatalf("leaver journalled %d leave-drops, want 2", got)
	}
	if got := countEvents(a, obs.EvLeft, "", "deregistered"); got != 1 {
		t.Fatalf("leaver journalled %d EvLeft(deregistered), want 1", got)
	}
	// Each neighbor journalled the announcement and a "depart" drop —
	// and nothing was ever dropped as "unresponsive" (the sweep path).
	for _, n := range []*Node{b, c} {
		if got := countEvents(n, obs.EvDepartReceived, a.Addr(), ""); got != 1 {
			t.Fatalf("%s journalled %d EvDepartReceived, want 1", n.Addr(), got)
		}
		if got := countEvents(n, obs.EvPeerDropped, a.Addr(), "depart"); got != 1 {
			t.Fatalf("%s journalled %d depart-drops, want 1", n.Addr(), got)
		}
		if got := countEvents(n, obs.EvPeerDropped, "", "unresponsive"); got != 0 {
			t.Fatalf("%s dropped via sweep timeout: %d events", n.Addr(), got)
		}
	}

	// The Depart carried a's other peer as a replacement hint; b and c
	// heal the hole without a LIGLO round trip.
	waitUntil(t, "b to adopt the hint", func() bool { return hasPeer(b, c.Addr()) })
	waitUntil(t, "c to adopt the hint", func() bool { return hasPeer(c, b.Addr()) })
	if got := countEvents(b, obs.EvPeerAdded, c.Addr(), "depart-hint"); got != 1 {
		t.Fatalf("b journalled %d depart-hint adoptions, want 1", got)
	}

	// LIGLO marked the member offline on its own say-so.
	if got := f.metrics.Snapshot().Value("bestpeer_liglo_deregisters_total"); got != 1 {
		t.Fatalf("liglo deregisters = %v, want 1", got)
	}
	cli := liglo.NewClient(f.nw)
	defer cli.Close()
	if _, online, err := cli.Lookup(a.ID()); err != nil || online {
		t.Fatalf("leaver still online at LIGLO: online=%v err=%v", online, err)
	}

	// Leave is idempotent, and a fresh Join re-enters the overlay.
	if err := a.Leave(); err != nil {
		t.Fatalf("second Leave: %v", err)
	}
	if got := countEvents(a, obs.EvLeft, "", ""); got != 1 {
		t.Fatalf("second Leave re-journalled EvLeft: %d events", got)
	}
	if err := a.Join([]string{f.srv.Addr()}); err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
	if a.Leaving() {
		t.Fatal("still Leaving() after Join")
	}
}

// TestRepairRoundDropsSuspectAndBackfills drives the crash half of the
// lifecycle: a peer dies, the transport failure detector marks it
// suspect, and one repair round validates the suspicion, drops the edge
// and backfills the degree from LIGLO.
func TestRepairRoundDropsSuspectAndBackfills(t *testing.T) {
	f := newLifecycleFleet(t)
	sensitive := func(cfg *Config) {
		cfg.MaxPeers = 3
		cfg.Transport = transport.Options{
			FailThreshold: 1,
			// Long backoff: the suspect window must outlive the probe
			// timeouts below so RepairRound still sees the suspicion.
			BackoffBase: time.Minute,
			DialTimeout: 200 * time.Millisecond,
		}
	}
	a := f.node(t, "rep-a", sensitive)
	b := f.node(t, "rep-b", nil)
	f.node(t, "rep-c", nil)
	f.node(t, "rep-d", nil)
	a.SetPeers([]Peer{{Addr: b.Addr()}})

	// b crashes: its listener disappears without any Depart.
	bAddr := b.Addr()
	_ = b.Close() // the crash under test
	f.nw.Drop(bAddr)

	// A failed probe pushes b over the (threshold 1) failure bar.
	if a.Probe(bAddr, 100*time.Millisecond) {
		t.Fatal("probe of crashed peer succeeded")
	}
	waitUntil(t, "transport to suspect the crashed peer", func() bool {
		return a.msgr.Failing(bAddr)
	})
	// The home LIGLO runs a liveness sweep and notices the crash too —
	// without this, backfill would legitimately hand the stale member
	// back (the registry's failure-detector lag).
	f.srv.CheckNow()

	added := a.RepairRound("test-crash", 200*time.Millisecond)
	if hasPeer(a, bAddr) {
		t.Fatalf("crashed peer still in set: %v", a.PeerAddrs())
	}
	if got := countEvents(a, obs.EvPeerDropped, bAddr, "suspect"); got != 1 {
		t.Fatalf("journalled %d suspect-drops, want 1", got)
	}
	// Backfill found the two live strangers via the home LIGLO.
	if added < 1 {
		t.Fatalf("repair added %d peers, want ≥ 1", added)
	}
	if got := countEvents(a, obs.EvRepair, "", "test-crash"); got != 1 {
		t.Fatalf("journalled %d EvRepair(test-crash), want 1", got)
	}
	if len(a.Peers()) == 0 {
		t.Fatal("repair left the node isolated")
	}

	// A leaving node must not repair itself back into the overlay.
	if err := a.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := a.RepairRound("after-leave", 100*time.Millisecond); got != 0 {
		t.Fatalf("repair ran on a leaving node: added %d", got)
	}
	if len(a.Peers()) != 0 {
		t.Fatalf("leaving node re-adopted peers: %v", a.PeerAddrs())
	}
}

// TestPeersOfPeer pins the neighbor-of-neighbor exchange repair builds
// on: a peer serves its peer list minus the requester, and an
// unreachable target times out cleanly.
func TestPeersOfPeer(t *testing.T) {
	f := newLifecycleFleet(t)
	a := f.node(t, "pop-a", nil)
	b := f.node(t, "pop-b", nil)
	c := f.node(t, "pop-c", nil)
	a.SetPeers([]Peer{{Addr: b.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}, {Addr: c.Addr()}})

	got, ok := a.PeersOfPeer(b.Addr(), time.Second)
	if !ok {
		t.Fatal("PeersOfPeer timed out against a live peer")
	}
	if len(got) != 1 || got[0].Addr != c.Addr() {
		t.Fatalf("candidates = %v, want just %s (requester excluded)", got, c.Addr())
	}
	if _, ok := a.PeersOfPeer("pop-nobody", 100*time.Millisecond); ok {
		t.Fatal("PeersOfPeer against a dead address reported success")
	}
}

// heldReplyNet is a node's view of the network with a LIGLO stub in it:
// while armed, the reply to the next call made to server is read off the
// wire — so the server has answered — and then kept from the caller until
// release is closed.
type heldReplyNet struct {
	transport.Network
	server string

	mu      sync.Mutex
	fetched chan struct{} // closed once the held reply has been read
	release chan struct{}
}

func (h *heldReplyNet) arm() (fetched <-chan struct{}, release chan<- struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fetched, h.release = make(chan struct{}), make(chan struct{})
	return h.fetched, h.release
}

func (h *heldReplyNet) Dial(addr string) (net.Conn, error) {
	conn, err := h.Network.Dial(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil || addr != h.server || h.fetched == nil {
		return conn, err
	}
	held := &heldReplyConn{Conn: conn, fetched: h.fetched, release: h.release}
	h.fetched, h.release = nil, nil
	return held, nil
}

type heldReplyConn struct {
	net.Conn
	once    sync.Once
	fetched chan struct{}
	release chan struct{}
}

func (c *heldReplyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.once.Do(func() {
		close(c.fetched)
		<-c.release
	})
	return n, err
}

// TestReplenishOrdersLigloReplyAgainstDepart is the deterministic form of
// the race TestSweepRacesLeaveAndDepart used to lose about one run in
// fifteen: a LIGLO list that was answered before a member deregistered and
// is applied after that member's Depart must not bring the edge back,
// while a list asked for after the departure — the member has rejoined —
// still does, inside departedTTL.
func TestReplenishOrdersLigloReplyAgainstDepart(t *testing.T) {
	f := newLifecycleFleet(t)
	stub := &heldReplyNet{Network: f.nw, server: f.srv.Addr()}
	a := f.node(t, "order-a", func(cfg *Config) { cfg.Network = stub })
	b := f.node(t, "order-b", nil)
	a.SetPeers([]Peer{{Addr: b.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}})

	fetched, release := stub.arm()
	type result struct {
		added int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		added, err := a.Replenish()
		done <- result{added, err}
	}()
	<-fetched // the server has answered: b is registered, online and on the list
	if err := b.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitUntil(t, "the Depart to be handled", func() bool {
		return countEvents(a, obs.EvDepartReceived, b.Addr(), "") == 1 && !hasPeer(a, b.Addr())
	})
	close(release)
	if r := <-done; r.err != nil || r.added != 0 {
		t.Fatalf("Replenish with a list older than the Depart: added %d, %v; want 0", r.added, r.err)
	}
	if hasPeer(a, b.Addr()) {
		t.Fatalf("leaver resurrected by a stale LIGLO list: %v", a.PeerAddrs())
	}

	if err := b.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if added, err := a.Replenish(); err != nil || added != 1 || !hasPeer(a, b.Addr()) {
		t.Fatalf("Replenish after the Rejoin: added %d, %v, peers %v; want the rejoined member back", added, err, a.PeerAddrs())
	}
}

// TestSweepRacesLeaveAndDepart is the churn race the PR hardens against:
// sweeps probing the peer set while one neighbor gracefully leaves and
// another crashes, concurrently with repair rounds. The invariants — no
// resurrected edges, at most one journalled drop per departed peer — must
// hold under any interleaving (run with -race in CI).
func TestSweepRacesLeaveAndDepart(t *testing.T) {
	f := newLifecycleFleet(t)
	a := f.node(t, "race-a", func(cfg *Config) {
		cfg.Transport = transport.Options{
			FailThreshold: 1,
			BackoffBase:   20 * time.Millisecond,
			DialTimeout:   100 * time.Millisecond,
		}
	})
	b := f.node(t, "race-b", nil)
	c := f.node(t, "race-c", nil)
	d := f.node(t, "race-d", nil)
	// Pin every peer set: LIGLO seeds joiners with initial peers, and a
	// stale third-party edge to the leaver would let neighbor-of-neighbor
	// backfill legitimately hand it back.
	a.SetPeers([]Peer{{Addr: b.Addr()}, {Addr: c.Addr()}, {Addr: d.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}, {Addr: d.Addr()}})
	c.SetPeers(nil)
	d.SetPeers([]Peer{{Addr: a.Addr()}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // continuous sweeps, the failure-detector path
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sweep(a, 50*time.Millisecond)
			}
		}
	}()
	go func() { // continuous repair, the backfill path
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.RepairRound("race", 50*time.Millisecond)
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()

	time.Sleep(30 * time.Millisecond)
	if err := b.Leave(); err != nil { // graceful exit mid-sweep
		t.Fatalf("Leave: %v", err)
	}
	cAddr := c.Addr()
	_ = c.Close() // crash mid-sweep
	f.nw.Drop(cAddr)

	waitUntil(t, "the leaver to drop", func() bool { return !hasPeer(a, b.Addr()) })
	waitUntil(t, "the crash to be detected", func() bool {
		return countEvents(a, obs.EvPeerDropped, cAddr, "") >= 1
	})
	close(stop)
	wg.Wait()

	// The leaver dropped exactly once — via its Depart, since it stays
	// responsive to probes after Leave. A second drop would mean a stale
	// sweep or repair result clobbered the newer peer set.
	if got := countEvents(a, obs.EvPeerDropped, b.Addr(), ""); got != 1 {
		t.Fatalf("leaver dropped %d times, want exactly 1", got)
	}
	// The crashed node may flap: LIGLO has not yet noticed the crash, so
	// repair can legitimately hand it back until the server's own sweep
	// catches up. But every extra drop must be preceded by a re-add —
	// consecutive drops of an absent peer would be double journalling.
	cDrops := countEvents(a, obs.EvPeerDropped, cAddr, "")
	cAdds := countEvents(a, obs.EvPeerAdded, cAddr, "")
	if cDrops > cAdds+1 {
		t.Fatalf("crashed peer: %d drops vs %d adds — dropped while absent", cDrops, cAdds)
	}
	// No resurrection of the leaver: it deregistered from LIGLO, no hint
	// names it and every third-party edge to it is gone, so further
	// repair rounds must not bring it back.
	a.RepairRound("final", 100*time.Millisecond)
	a.RepairRound("final", 100*time.Millisecond)
	if hasPeer(a, b.Addr()) {
		t.Fatalf("leaver resurrected: %v", a.PeerAddrs())
	}
	// The survivor is still connected — repair backfilled around the
	// churn rather than tearing the overlay down.
	if len(a.Peers()) == 0 {
		t.Fatal("node left isolated after churn")
	}
}

// TestRepairDoesNotResurrectDepartedPeer pins the live-drill regression:
// a leaver's process stays up (it can Rejoin), so it answers probes —
// and a neighbor that has not yet processed the Depart keeps offering it
// as a neighbor-of-neighbor candidate. The depart-kicked repair round
// must refuse that gossip instead of re-adopting the edge it just tore
// down; only the home LIGLO vouching for the address again (after a
// rejoin) brings it back.
func TestRepairDoesNotResurrectDepartedPeer(t *testing.T) {
	f := newLifecycleFleet(t)
	a := f.node(t, "dl-a", nil)
	b := f.node(t, "dl-b", nil)
	c := f.node(t, "dl-c", nil)
	// Pin the topology (LIGLO's default initial-peer seeding would add
	// extra edges): a → {b, c}; b → {a}; c → {b}. c never hears b's
	// Depart, so its peer list is exactly the stale gossip under test.
	a.SetPeers([]Peer{{Addr: b.Addr()}, {Addr: c.Addr()}})
	b.SetPeers([]Peer{{Addr: a.Addr()}})
	c.SetPeers([]Peer{{Addr: b.Addr()}})

	if err := b.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitUntil(t, "a to process b's depart", func() bool { return !hasPeer(a, b.Addr()) })

	// The repair round has a deficit and c offers b (alive, probe-
	// positive, deregistered). It must not come back.
	a.RepairRound("test-departed", 200*time.Millisecond)
	if hasPeer(a, b.Addr()) {
		t.Fatalf("repair resurrected departed peer: %v", a.PeerAddrs())
	}
	if got := countEvents(a, obs.EvPeerAdded, b.Addr(), "repair"); got != 0 {
		t.Fatalf("journal shows %d repair adoptions of the leaver", got)
	}

	// Rejoin flips the registry back to truthful-online; the next repair
	// round's Replenish re-adopts b through the trusted path and clears
	// the refusal early (no departedTTL wait).
	if err := b.Join([]string{f.srv.Addr()}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	a.RepairRound("test-rejoined", 200*time.Millisecond)
	if !hasPeer(a, b.Addr()) {
		t.Fatalf("replenish did not re-adopt rejoined peer: %v", a.PeerAddrs())
	}
	if a.recentlyDeparted(b.Addr()) {
		t.Fatal("adoption did not clear the departed refusal")
	}
}
