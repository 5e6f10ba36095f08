package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/liglo"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
)

func TestQueryAndFetchRetrievesHintedData(t *testing.T) {
	c := newCluster(t, 4, static, func(i int, s *storm.Store) {
		if i > 0 {
			s.Put(&storm.Object{
				Name:     fmt.Sprintf("video-%d", i),
				Keywords: []string{"video"},
				Data:     []byte(fmt.Sprintf("frames-of-%d", i)),
			})
		}
	})
	c.wire(topology.Star(4))

	res, err := c.nodes[0].QueryAndFetch(&agent.KeywordAgent{Query: "video"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hints) != 3 {
		t.Fatalf("hints = %d, want 3", len(res.Hints))
	}
	if len(res.Answers) != 3 {
		t.Fatalf("fetched answers = %d, want 3", len(res.Answers))
	}
	for _, a := range res.Answers {
		want := fmt.Sprintf("frames-of-%c", a.Result.Name[len(a.Result.Name)-1])
		if string(a.Result.Data) != want {
			t.Fatalf("fetched %s = %q, want %q", a.Result.Name, a.Result.Data, want)
		}
	}
}

func TestQueryAndFetchIncludesLocalMatches(t *testing.T) {
	c := newCluster(t, 2, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("doc-%d", i),
			Keywords: []string{"doc"},
			Data:     []byte{byte(i + 1)},
		})
	})
	c.wire(topology.Line(2))
	res, err := c.nodes[0].QueryAndFetch(&agent.KeywordAgent{Query: "doc"}, QueryOptions{
		Timeout: time.Second, WaitAnswers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := collectNames(res.Answers)
	if !names["doc-0"] || !names["doc-1"] {
		t.Fatalf("answers = %v, want both local and remote", names)
	}
	for _, a := range res.Answers {
		if len(a.Result.Data) == 0 {
			t.Fatalf("answer %s has no data", a.Result.Name)
		}
	}
}

func TestQueryAndFetchSkipsRemovedObjects(t *testing.T) {
	c := newCluster(t, 2, static, func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "fleeting", Keywords: []string{"f"}})
			s.Put(&storm.Object{Name: "stable-f", Keywords: []string{"f"}, Data: []byte("x")})
		}
	})
	c.wire(topology.Line(2))

	// Collect hints manually, remove one object, then fetch via the
	// helper path (simulating the §2 race at full speed is impossible
	// deterministically, so exercise the fallback directly).
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "f"}, QueryOptions{
		Mode: 2, Timeout: time.Second, WaitAnswers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hints) != 2 {
		t.Fatalf("hints = %d", len(res.Hints))
	}
	c.nodes[1].store.Delete("fleeting")
	got, err := c.nodes[0].Fetch(c.nodes[1].Addr(), []string{"fleeting", "stable-f"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "stable-f" {
		t.Fatalf("fetched = %+v, want only stable-f", got)
	}
}

// sweep probes every direct peer and drops the unresponsive ones: the
// repair round's drop step over the whole peer set, not just the peers
// the transport already distrusts.
func sweep(n *Node, probeTO time.Duration) int {
	return n.dropDead(func(Peer) bool { return true }, probeTO, "unresponsive")
}

func TestSweepPeersDropsDeadPeer(t *testing.T) {
	c := newCluster(t, 3, nil, nil)
	c.wire(topology.Star(3))
	base := c.nodes[0]
	if len(base.Peers()) != 2 {
		t.Fatalf("peers = %v", base.Peers())
	}
	// Node 2 dies and its address disappears from the network.
	c.nodes[2].Close()
	c.nw.Drop(c.nodes[2].Addr())

	dropped := sweep(base, 200*time.Millisecond)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	peers := base.PeerAddrs()
	if len(peers) != 1 || peers[0] != c.nodes[1].Addr() {
		t.Fatalf("peers after sweep = %v", peers)
	}
}

func TestReplenishFillsPeerSetFromLiglo(t *testing.T) {
	nw := transport.NewInProc()
	srv, err := liglo.NewServer(nw, "liglo-rep", liglo.ServerConfig{InitialPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mk := func(name string) *Node {
		st, err := storm.Open(filepath.Join(t.TempDir(), name+".storm"), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		n, err := NewNode(Config{Network: nw, ListenAddr: name, Store: st, MaxPeers: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if err := n.Join([]string{srv.Addr()}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	first := mk("rep-a")
	mk("rep-b")
	mk("rep-c")
	mk("rep-d")

	// The first joiner got no initial peers (nobody existed yet).
	if len(first.Peers()) != 0 {
		t.Fatalf("first joiner peers = %v", first.Peers())
	}
	added, err := first.Replenish(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || len(first.Peers()) != 3 {
		t.Fatalf("replenish added %d, peers = %v", added, first.PeerAddrs())
	}
	// Idempotent when already full enough.
	again, err := first.Replenish(time.Second)
	if err != nil || again != 0 {
		t.Fatalf("second replenish = %d, %v", again, err)
	}
	// Never hands back the node itself.
	for _, p := range first.PeerAddrs() {
		if p == first.Addr() {
			t.Fatal("replenish added self")
		}
	}
}

func TestReplenishBeforeJoinFails(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	if _, err := c.nodes[0].Replenish(0); err == nil {
		t.Fatal("replenish before join succeeded")
	}
}
