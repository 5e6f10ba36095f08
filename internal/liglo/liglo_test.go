package liglo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
	"bestpeer/internal/wire"
)

func newPair(t *testing.T, cfg ServerConfig) (*transport.InProc, *Server, *Client) {
	t.Helper()
	nw := transport.NewInProc()
	srv, err := NewServer(nw, "liglo-1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return nw, srv, NewClient(nw, nil)
}

func TestRegisterIssuesSequentialBPIDs(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	id1, peers1, err := cli.Register(srv.Addr(), "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if id1.LIGLO != srv.Addr() || id1.Node != 1 {
		t.Fatalf("first BPID = %v", id1)
	}
	if len(peers1) != 0 {
		t.Fatalf("first registrant got peers: %v", peers1)
	}
	id2, peers2, err := cli.Register(srv.Addr(), "node-2")
	if err != nil {
		t.Fatal(err)
	}
	if id2.Node != 2 {
		t.Fatalf("second BPID = %v", id2)
	}
	if len(peers2) != 1 || peers2[0].ID != id1 || peers2[0].Addr != "node-1" {
		t.Fatalf("second registrant peers = %v", peers2)
	}
	if srv.Members() != 2 || srv.registers.Value() != 2 {
		t.Fatalf("members=%d registers=%d", srv.Members(), srv.registers.Value())
	}
}

func TestRegisterPeerListCapped(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{InitialPeers: 3})
	for i := 0; i < 10; i++ {
		if _, _, err := cli.Register(srv.Addr(), fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, peers, err := cli.Register(srv.Addr(), "last")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 {
		t.Fatalf("peer list = %d entries, want 3", len(peers))
	}
}

func TestCapacityRejection(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{Capacity: 2})
	cli.Register(srv.Addr(), "a")
	cli.Register(srv.Addr(), "b")
	if _, _, err := cli.Register(srv.Addr(), "c"); !errors.Is(err, errFull) {
		t.Fatalf("over-capacity register: %v", err)
	}
	if srv.rejected.Value() != 1 {
		t.Fatalf("Rejected = %d", srv.rejected.Value())
	}
}

func TestRegisterAnyFallsThrough(t *testing.T) {
	nw := transport.NewInProc()
	full, err := NewServer(nw, "liglo-full", ServerConfig{Capacity: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	// Saturate with capacity 1.
	full.cfg.Capacity = 1
	cli := NewClient(nw, nil)
	cli.Register(full.Addr(), "x")

	open, err := NewServer(nw, "liglo-open", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()

	id, _, err := cli.RegisterAny([]string{"liglo-down", full.Addr(), open.Addr()}, "me")
	if err != nil {
		t.Fatal(err)
	}
	if id.LIGLO != open.Addr() {
		t.Fatalf("registered at %v", id)
	}

	if _, _, err := cli.RegisterAny(nil, "me"); err == nil {
		t.Fatal("empty server list succeeded")
	}
	if _, _, err := cli.RegisterAny([]string{"liglo-down"}, "me"); err == nil {
		t.Fatal("all-down server list succeeded")
	}
}

func TestRejoinUpdatesAddress(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	id, _, _ := cli.Register(srv.Addr(), "old-addr")

	if err := cli.Rejoin(id, "new-addr"); err != nil {
		t.Fatal(err)
	}
	addr, online, err := cli.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "new-addr" || !online {
		t.Fatalf("lookup after rejoin = %q online=%v", addr, online)
	}
	if srv.rejoins.Value() != 1 {
		t.Fatalf("Rejoins = %d", srv.rejoins.Value())
	}
}

func TestRejoinUnknownMember(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	bad := wire.BPID{LIGLO: srv.Addr(), Node: 999}
	if err := cli.Rejoin(bad, "x"); !errors.Is(err, errUnknown) {
		t.Fatalf("rejoin unknown: %v", err)
	}
}

func TestWrongHomeRejected(t *testing.T) {
	nw := transport.NewInProc()
	s1, _ := NewServer(nw, "liglo-a", ServerConfig{})
	defer s1.Close()
	s2, _ := NewServer(nw, "liglo-b", ServerConfig{})
	defer s2.Close()
	cli := NewClient(nw, nil)
	id, _, _ := cli.Register(s1.Addr(), "n")

	// A BPID issued by s1 presented to s2 (forced by rewriting LIGLO).
	foreign := wire.BPID{LIGLO: s2.Addr(), Node: id.Node}
	// s2 never issued node id; but LIGLO matches, so it is "unknown".
	if _, _, err := cli.Lookup(foreign); !errors.Is(err, errUnknown) {
		t.Fatalf("lookup foreign: %v", err)
	}
	// Present s1's BPID but dial s2 via a doctored identity: the
	// LIGLOID inside the request will not match s2's address.
	doctored := wire.BPID{LIGLO: id.LIGLO, Node: id.Node}
	// Simulate asking the wrong server directly.
	req := &wire.Envelope{
		Kind: wire.KindLigloLookup, ID: wire.NewMsgID(), TTL: 1,
		Body: wire.Marshal(&lookupReq{ID: doctored}),
	}
	resp, err := cli.call("lookup", s2.Addr(), req, wire.KindLigloStatus)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := unmarshal(resp.Body, new(lookupResp), "lookup reply")
	if r.Err != errWrongHome.Error() {
		t.Fatalf("wrong-home lookup err = %q", r.Err)
	}
}

func TestTwoServersIndependentNamespaces(t *testing.T) {
	// "Unlimited name resources": both servers may issue Node 1.
	nw := transport.NewInProc()
	s1, _ := NewServer(nw, "liglo-a", ServerConfig{})
	defer s1.Close()
	s2, _ := NewServer(nw, "liglo-b", ServerConfig{})
	defer s2.Close()
	cli := NewClient(nw, nil)
	id1, _, _ := cli.Register(s1.Addr(), "n1")
	id2, _, _ := cli.Register(s2.Addr(), "n2")
	if id1.Node != 1 || id2.Node != 1 {
		t.Fatalf("ids = %v, %v", id1, id2)
	}
	if id1 == id2 {
		t.Fatal("BPIDs from different servers must differ")
	}
	// Failure of one server leaves the other operational.
	s1.Close()
	if _, _, err := cli.Lookup(id2); err != nil {
		t.Fatalf("s2 affected by s1 failure: %v", err)
	}
	if _, _, err := cli.Lookup(id1); err == nil {
		t.Fatal("lookup against closed server succeeded")
	}
}

func TestLookupUnknownNode(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	if _, _, err := cli.Lookup(wire.BPID{LIGLO: srv.Addr(), Node: 42}); !errors.Is(err, errUnknown) {
		t.Fatalf("lookup unknown: %v", err)
	}
}

func TestValidatorMarksDeadMembersOffline(t *testing.T) {
	nw, srv, cli := newPair(t, ServerConfig{})

	// A live member: leave a listener on its address.
	aliveL, err := nw.Listen("alive-node")
	if err != nil {
		t.Fatal(err)
	}
	defer aliveL.Close()
	go func() { // accept and close probe connections
		for {
			c, err := aliveL.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	aliveID, _, _ := cli.Register(srv.Addr(), "alive-node")
	deadID, _, _ := cli.Register(srv.Addr(), "dead-node") // nothing listens

	online := srv.CheckNow()
	if online != 1 {
		t.Fatalf("online after sweep = %d", online)
	}
	if _, online, _ := cli.Lookup(aliveID); !online {
		t.Fatal("live member marked offline")
	}
	if _, online, _ := cli.Lookup(deadID); online {
		t.Fatal("dead member marked online")
	}
	// Rejoin flips it back.
	if err := cli.Rejoin(deadID, "dead-node"); err != nil {
		t.Fatal(err)
	}
	if _, online, _ := cli.Lookup(deadID); !online {
		t.Fatal("rejoin did not mark member online")
	}
}

// TestChaosSweepSurvivesHungMember: a member whose address neither
// accepts nor refuses costs the liveness sweep one dial bound — the sweep
// finishes, judges the other members, and Close still returns.
func TestChaosSweepSurvivesHungMember(t *testing.T) {
	inner := transport.NewInProc()
	fab := faultnet.New(inner, 1)
	srv, err := NewServer(fab, "liglo-1", ServerConfig{ProbeInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := NewClient(inner, nil)
	ids := make(map[string]wire.BPID)
	for _, addr := range []string{"m1", "m2", "m3"} {
		l, err := inner.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() { // accept and close probe connections
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		if ids[addr], _, err = cli.Register(srv.Addr(), addr); err != nil {
			t.Fatal(err)
		}
	}
	fab.HangDial("m3")
	t.Cleanup(func() { fab.HealDial("m3") }) // frees a sweep the bound failed to

	deadline := time.Now().Add(3 * transport.DialBound)
	for srv.sweeps.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no sweep finished within %v of a hung member", 3*transport.DialBound)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for addr, want := range map[string]bool{"m1": true, "m2": true, "m3": false} {
		if _, online, err := cli.Lookup(ids[addr]); err != nil || online != want {
			t.Fatalf("%s after the sweep: online = %v (err %v), want %v", addr, online, err, want)
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * transport.DialBound):
		t.Fatal("Close blocked behind the sweep")
	}
}

func TestOfflineMembersExcludedFromPeerList(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{InitialPeers: 10})
	cli.Register(srv.Addr(), "ghost-1")
	cli.Register(srv.Addr(), "ghost-2")
	srv.CheckNow() // nothing listens: both go offline
	_, peers, err := cli.Register(srv.Addr(), "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Fatalf("offline members leaked into peer list: %v", peers)
	}
}

func TestConcurrentRegistrations(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	const n = 32
	ids := make([]wire.BPID, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, _, err := cli.Register(srv.Addr(), fmt.Sprintf("n%d", i))
			if err != nil {
				errs <- err
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, id := range ids {
		if seen[id.Node] {
			t.Fatalf("duplicate NodeID %d issued", id.Node)
		}
		seen[id.Node] = true
	}
	if srv.Members() != n {
		t.Fatalf("members = %d", srv.Members())
	}
}

func TestServerIgnoresGarbageRequests(t *testing.T) {
	nw, srv, cli := newPair(t, ServerConfig{})
	// Garbage body on a valid kind: server drops the connection.
	req := &wire.Envelope{Kind: wire.KindLigloRegister, ID: wire.NewMsgID(), TTL: 1,
		Body: []byte{0xFF, 0xFF, 0xFF}}
	if _, err := cli.call("register", srv.Addr(), req, wire.KindLigloRegisterd); err == nil {
		t.Fatal("garbage register got a reply")
	}
	// Wrong kind entirely.
	req2 := &wire.Envelope{Kind: wire.KindAgent, ID: wire.NewMsgID(), TTL: 1}
	if _, err := cli.call("register", srv.Addr(), req2, wire.KindLigloRegisterd); err == nil {
		t.Fatal("non-liglo kind got a reply")
	}
	// Server still alive afterwards.
	if _, _, err := cli.Register(srv.Addr(), "ok"); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
	_ = nw
}

func TestClientAgainstClosedServer(t *testing.T) {
	nw := transport.NewInProc()
	srv, _ := NewServer(nw, "liglo-x", ServerConfig{})
	cli := NewClient(nw, nil)
	srv.Close()
	if _, _, err := cli.Register("liglo-x", "n"); err == nil {
		t.Fatal("register against closed server succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestNoExpiryByDefault(t *testing.T) {
	nw := transport.NewInProc()
	srv, err := NewServer(nw, "liglo-noexp", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(nw, nil)
	cli.Register(srv.Addr(), "sleepy-node")
	srv.CheckNow()
	time.Sleep(20 * time.Millisecond)
	srv.CheckNow()
	if srv.Members() != 1 {
		t.Fatalf("member expired without policy: %d", srv.Members())
	}
}

// TestStandaloneFallbackIsNotAnAnswer: without a ring, a second server
// from the RegisterAny list answers a rejoin with errWrongHome. That is a
// miss, not an answer: the home's transport error stands and the client
// retries the home, three rounds of two calls.
func TestStandaloneFallbackIsNotAnAnswer(t *testing.T) {
	nw := transport.NewInProc()
	home, err := NewServer(nw, "liglo-home", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewServer(nw, "liglo-other", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	cli := NewClient(nw, nil)
	id, _, err := cli.RegisterAny([]string{home.Addr(), other.Addr()}, "n1")
	if err != nil || id.LIGLO != home.Addr() {
		t.Fatalf("registered %v at %s, err %v; want the first server", id, id.LIGLO, err)
	}
	home.Close()
	err = cli.Rejoin(id, "n1")
	if err == nil || errors.Is(err, errWrongHome) {
		t.Fatalf("rejoin with the home down = %v, want the home's transport error", err)
	}
	if got := cli.calls["rejoin"].Value(); got != 2*(retries+1) {
		t.Fatalf("rejoin calls = %d, want %d", got, 2*(retries+1))
	}
}
