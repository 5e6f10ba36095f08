package liglo

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// ringServers starts n LIGLO servers joined into one chord ring, with
// maintenance loops parked (hour-long cadences) so tests drive
// convergence deterministically via convergeRing and ReplicateNow.
func ringServers(t *testing.T, n int) (transport.Network, []*Server) {
	t.Helper()
	nw := transport.NewInProc()
	servers := make([]*Server, 0, n)
	for i := 0; i < n; i++ {
		join := ""
		if i > 0 {
			join = servers[0].Addr()
		}
		srv, err := NewServer(nw, fmt.Sprintf("liglo-%d", i+1), ServerConfig{
			Ring: &RingConfig{
				Join:            join,
				Successors:      4,
				StabilizeEvery:  time.Hour,
				FixFingersEvery: time.Hour,
				CheckPredEvery:  time.Hour,
				ReplicateEvery:  -1,
			},
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		servers = append(servers, srv)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			_ = s.Close()
		}
	})
	return nw, servers
}

// convergeRing drives enough maintenance rounds across the given servers
// for successor lists, predecessors and fingers to settle.
func convergeRing(servers ...*Server) {
	for round := 0; round < 3*len(servers)+6; round++ {
		for _, s := range servers {
			s.Ring().CheckPredecessor()
			s.Ring().Stabilize()
			s.Ring().RefreshFingers()
		}
	}
}

// ringClient returns a client whose fallback list is servers, as
// RegisterAny would leave it.
func ringClient(nw transport.Network, servers []*Server) *Client {
	c := NewClient(nw, nil)
	for _, s := range servers {
		c.servers = append(c.servers, s.Addr())
	}
	return c
}

// TestRingPartitionsResolution: three ring servers each own their own
// members' keys; a server asked about a key it does not own answers
// with a redirect to the owner, and replication spreads every record to
// the other members.
func TestRingPartitionsResolution(t *testing.T) {
	nw, servers := ringServers(t, 3)
	convergeRing(servers...)

	// Every server should see both others in its successor list.
	for _, s := range servers {
		succs := s.Ring().Snapshot().Successors
		found := map[string]bool{}
		for _, r := range succs {
			found[r.Addr] = true
		}
		for _, other := range servers {
			if other != s && !found[other.Addr()] {
				t.Fatalf("%s successors %v missing %s", s.Addr(), succs, other.Addr())
			}
		}
	}

	c := NewClient(nw, nil)
	defer c.Close()
	ids := make([]wire.BPID, len(servers))
	for i, s := range servers {
		id, _, err := c.Register(s.Addr(), fmt.Sprintf("n%d:100", i+1))
		if err != nil {
			t.Fatalf("register at %s: %v", s.Addr(), err)
		}
		ids[i] = id
	}

	// A server that does not own a key must redirect to the one that does.
	req := reply(wire.KindLigloLookup, wire.Marshal(&lookupReq{ID: ids[0]}))
	resp, err := transport.Call(nw, servers[1].Addr(), req, wire.KindRingRedirect)
	if err != nil {
		t.Fatalf("lookup of %v at %s: %v, want a redirect", ids[0], servers[1].Addr(), err)
	}
	m, err := unmarshal(resp.Body, new(redirectMsg), "redirect")
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr != servers[0].Addr() {
		t.Fatalf("redirect to %s, want %s", m.Addr, servers[0].Addr())
	}
	if servers[1].redirects.Value() == 0 {
		t.Fatal("redirect counter not incremented")
	}

	// Replication lands every server's record on both of the others.
	for _, s := range servers {
		if acked := s.ReplicateNow(); acked != 2 {
			t.Fatalf("%s replicated to %d successors, want 2", s.Addr(), acked)
		}
	}
	for _, s := range servers {
		if got := s.ForeignRecords(); got != 2 {
			t.Fatalf("%s holds %d foreign records, want 2", s.Addr(), got)
		}
	}

	// A ring-aware client resolves every BPID regardless of issuer.
	rc := ringClient(nw, servers)
	defer rc.Close()
	for i, id := range ids {
		addr, online, err := rc.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %v: %v", id, err)
		}
		if want := fmt.Sprintf("n%d:100", i+1); addr != want || !online {
			t.Fatalf("lookup %v = (%s, %v), want (%s, true)", id, addr, online, want)
		}
	}
}

// TestRingSurvivesLeaveAndCrash is the acceptance scenario: a 3-server
// ring takes one graceful leave and one crash, and every BPID stays
// resolvable from the survivor via successor-list replication.
func TestRingSurvivesLeaveAndCrash(t *testing.T) {
	nw, servers := ringServers(t, 3)
	convergeRing(servers...)

	c := NewClient(nw, nil)
	defer c.Close()
	ids := make([]wire.BPID, len(servers))
	for i, s := range servers {
		id, _, err := c.Register(s.Addr(), fmt.Sprintf("n%d:100", i+1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, s := range servers {
		s.ReplicateNow()
	}

	// Graceful leave: liglo-1 hands off and shuts down.
	if err := servers[0].Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	convergeRing(servers[1], servers[2])

	rc := ringClient(nw, servers[1:])
	defer rc.Close()
	for i, id := range ids {
		addr, _, err := rc.Lookup(id)
		if err != nil {
			t.Fatalf("after leave, lookup %v: %v", id, err)
		}
		if want := fmt.Sprintf("n%d:100", i+1); addr != want {
			t.Fatalf("after leave, lookup %v = %s, want %s", id, addr, want)
		}
	}

	// Crash: liglo-3 disappears without a goodbye. Failure detection
	// needs a few probe rounds to condemn it, then liglo-2 owns the
	// whole circle and serves everything it replicated.
	_ = servers[2].Close()
	convergeRing(servers[1])
	convergeRing(servers[1])

	snap := servers[1].Ring().Snapshot()
	if len(snap.Successors) != 1 || snap.Successors[0].Addr != servers[1].Addr() {
		t.Fatalf("survivor successors = %v, want just itself", snap.Successors)
	}
	for i, id := range ids {
		addr, _, err := rc.Lookup(id)
		if err != nil {
			t.Fatalf("after crash, lookup %v: %v", id, err)
		}
		if want := fmt.Sprintf("n%d:100", i+1); addr != want {
			t.Fatalf("after crash, lookup %v = %s, want %s", id, addr, want)
		}
	}
}

// TestClientRejoinAfterOwnerLeaves: a client registered against a ring
// member that gracefully leaves must re-resolve to the new key owner
// and Rejoin there without losing its BPID.
func TestClientRejoinAfterOwnerLeaves(t *testing.T) {
	nw, servers := ringServers(t, 3)
	convergeRing(servers...)

	rc := ringClient(nw, servers)
	defer rc.Close()
	id, _, err := rc.Register(servers[0].Addr(), "n1:100")
	if err != nil {
		t.Fatal(err)
	}
	servers[0].ReplicateNow()

	if err := servers[0].Leave(); err != nil {
		t.Fatal(err)
	}
	convergeRing(servers[1], servers[2])

	// The home server is gone; Rejoin must find the new owner through
	// the fallback servers and their redirects, keeping the same BPID.
	if err := rc.Rejoin(id, "n1:200"); err != nil {
		t.Fatalf("rejoin after owner left: %v", err)
	}
	addr, online, err := rc.Lookup(id)
	if err != nil {
		t.Fatalf("lookup after rejoin: %v", err)
	}
	if addr != "n1:200" || !online {
		t.Fatalf("lookup = (%s, %v), want (n1:200, true)", addr, online)
	}

	// Deregister routes the same way and pins the record offline.
	if err := rc.Deregister(id); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	_, online, err = rc.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if online {
		t.Fatal("deregistered member still online")
	}

	// An unknown BPID from the departed issuer is a clean errUnknown,
	// not a transport error.
	bogus := wire.BPID{LIGLO: servers[0].Addr(), Node: id.Node + 999}
	if _, _, err := rc.Lookup(bogus); !errors.Is(err, errUnknown) {
		t.Fatalf("bogus lookup err = %v, want errUnknown", err)
	}
}

// TestRingHintsSpanServers: a registrant's initial-peer hints draw on
// replicated foreign records, so a fleet whose nodes register at
// different ring servers still bootstraps connectivity. Without the
// foreign fill-in, each partitioned server would hand out only its own
// registrants — zero hints for the first node at every server.
func TestRingHintsSpanServers(t *testing.T) {
	nw, servers := ringServers(t, 3)
	convergeRing(servers...)

	c := NewClient(nw, nil)
	defer c.Close()
	first, _, err := c.Register(servers[0].Addr(), "n1:100")
	if err != nil {
		t.Fatal(err)
	}
	servers[0].ReplicateNow()

	// servers[1] has no local registrants, but holds n1 as a replica.
	_, peers, err := c.Register(servers[1].Addr(), "n2:100")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range peers {
		if p.ID == first && p.Addr == "n1:100" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hints from %s = %v, want replicated record for %v",
			servers[1].Addr(), peers, first)
	}

	// A departed replica must never be handed out as a hint.
	rc := ringClient(nw, servers)
	defer rc.Close()
	if err := rc.Deregister(first); err != nil {
		t.Fatal(err)
	}
	servers[0].ReplicateNow()
	_, peers, err = c.Register(servers[2].Addr(), "n3:100")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if p.ID == first {
			t.Fatalf("hints from %s include departed %v: %v",
				servers[2].Addr(), first, peers)
		}
	}
}
