package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/liglo"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// cluster is a set of live nodes on one in-process network.
type cluster struct {
	nw    *transport.InProc
	nodes []*Node
}

// newCluster starts n nodes. seedFn populates node i's store; nil gives
// each node one object "obj-<i>" with keyword "kw<i>".
func newCluster(t *testing.T, n int, mutate func(i int, cfg *Config), seedFn func(i int, s *storm.Store)) *cluster {
	t.Helper()
	c := &cluster{nw: transport.NewInProc()}
	for i := 0; i < n; i++ {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seedFn != nil {
			seedFn(i, st)
		} else {
			st.Put(&storm.Object{
				Name:     fmt.Sprintf("obj-%d", i),
				Keywords: []string{fmt.Sprintf("kw%d", i)},
				Data:     []byte(fmt.Sprintf("data-of-node-%d", i)),
			})
		}
		cfg := Config{
			Network:    c.nw,
			ListenAddr: fmt.Sprintf("node-%d", i),
			Store:      st,
			MaxPeers:   8,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
		store := st
		t.Cleanup(func() { node.Close(); store.Close() })
	}
	return c
}

// wire applies a topology: node i's direct peers are the topology's
// adjacency.
func (c *cluster) wire(tp *topology.Topology) {
	for i, node := range c.nodes {
		var peers []Peer
		for _, j := range tp.Peers(i) {
			peers = append(peers, Peer{Addr: c.nodes[j].Addr()})
		}
		node.SetPeers(peers)
	}
}

// static builds nodes whose overlay stays fixed across queries: the
// paper's BPS.
func static(_ int, cfg *Config) { cfg.Strategy = reconfig.Static{} }

func collectNames(answers []Answer) map[string]bool {
	out := make(map[string]bool)
	for _, a := range answers {
		out[a.Result.Name] = true
	}
	return out
}

func TestQueryStarReachesAllNodes(t *testing.T) {
	// Every node holds an object matching "music"; the base must get one
	// answer per node.
	c := newCluster(t, 6, nil, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("music-%d", i),
			Keywords: []string{"music"},
			Data:     []byte{byte(i)},
		})
	})
	c.wire(topology.Star(6))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "music"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 6 {
		t.Fatalf("answers = %d, want 6 (%v)", len(res.Answers), collectNames(res.Answers))
	}
	names := collectNames(res.Answers)
	for i := 0; i < 6; i++ {
		if !names[fmt.Sprintf("music-%d", i)] {
			t.Fatalf("missing answer from node %d: %v", i, names)
		}
	}
}

func TestQueryLinePropagatesByForwarding(t *testing.T) {
	const n = 5
	c := newCluster(t, n, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("deep-%d", i), Keywords: []string{"deep"}})
	})
	c.wire(topology.Line(n))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "deep"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != n {
		t.Fatalf("answers = %d, want %d", len(res.Answers), n)
	}
	// The far end of the line answered with the right hop count.
	for _, a := range res.Answers {
		if a.Result.Name == fmt.Sprintf("deep-%d", n-1) && a.Hops != n-1 {
			t.Fatalf("far answer hops = %d, want %d", a.Hops, n-1)
		}
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	const n = 6
	c := newCluster(t, n, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("x-%d", i), Keywords: []string{"x"}})
	})
	c.wire(topology.Line(n))

	// TTL 2: agent reaches nodes 1 (hop 1) and 2 (hop 2) only; plus local.
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "x"}, QueryOptions{
		TTL: 2, Timeout: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := collectNames(res.Answers)
	if !names["x-0"] || !names["x-1"] || !names["x-2"] {
		t.Fatalf("near answers missing: %v", names)
	}
	if names["x-3"] || names["x-4"] || names["x-5"] {
		t.Fatalf("TTL leak: %v", names)
	}
}

func TestDuplicateAgentsDropped(t *testing.T) {
	// A triangle: node 0 connected to 1 and 2, which are also connected.
	// Each of 1 and 2 receives the agent twice (direct + via the other);
	// answers must not be duplicated.
	c := newCluster(t, 3, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("t-%d", i), Keywords: []string{"t"}})
	})
	for i, node := range c.nodes {
		var peers []Peer
		for j := range c.nodes {
			if j != i {
				peers = append(peers, Peer{Addr: c.nodes[j].Addr()})
			}
		}
		node.SetPeers(peers)
	}
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "t"}, QueryOptions{
		Timeout: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want exactly 3 (dup suppression)", len(res.Answers))
	}
	stats1 := c.nodes[1].Stats()
	stats2 := c.nodes[2].Stats()
	if stats1.DuplicatesDropped+stats2.DuplicatesDropped == 0 {
		t.Fatal("no duplicates were dropped in a cyclic topology")
	}
	if stats1.AgentsExecuted != 1 || stats2.AgentsExecuted != 1 {
		t.Fatalf("agents executed more than once: %d, %d",
			stats1.AgentsExecuted, stats2.AgentsExecuted)
	}
}

func TestAnswersReturnDirectlyNotAlongPath(t *testing.T) {
	// In a 4-node line, node 3's answer must arrive at node 0 without
	// increasing nodes 1/2's sent-answer counters.
	c := newCluster(t, 4, static, func(i int, s *storm.Store) {
		if i == 3 {
			s.Put(&storm.Object{Name: "treasure", Keywords: []string{"gold"}})
		} else {
			s.Put(&storm.Object{Name: fmt.Sprintf("junk-%d", i), Keywords: []string{"junk"}})
		}
	})
	c.wire(topology.Line(4))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "gold"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Result.Name != "treasure" {
		t.Fatalf("answers = %+v", res.Answers)
	}
	if res.Answers[0].PeerAddr != c.nodes[3].Addr() {
		t.Fatalf("answer attributed to %s", res.Answers[0].PeerAddr)
	}
	// Intermediate nodes forwarded the agent but sent no answers.
	for _, i := range []int{1, 2} {
		st := c.nodes[i].Stats()
		if st.AnswersSent != 0 {
			t.Fatalf("node %d relayed answers (AnswersSent=%d)", i, st.AnswersSent)
		}
		if st.AgentsForwarded == 0 {
			t.Fatalf("node %d did not forward the agent", i)
		}
	}
}

func TestReconfigurationPromotesAnswerProvider(t *testing.T) {
	// Line 0-1-2: node 2 has the goods. With MaxCount and a budget of 2,
	// node 0 should promote node 2 to a direct peer after the first
	// query, so the second query reaches it in one hop.
	c := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.MaxPeers = 2
		cfg.Strategy = reconfig.MaxCount{}
	}, func(i int, s *storm.Store) {
		if i == 2 {
			s.Put(&storm.Object{Name: "hit", Keywords: []string{"want"}})
		} else {
			s.Put(&storm.Object{Name: fmt.Sprintf("miss-%d", i), Keywords: []string{"other"}})
		}
	})
	c.wire(topology.Line(3))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "want"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	if !res.Reconfigured {
		t.Fatal("peer set did not change")
	}
	peers := c.nodes[0].PeerAddrs()
	if len(peers) != 2 {
		t.Fatalf("peers after reconfig = %v, want node 1 retained and node 2 added", peers)
	}
	found := false
	for _, p := range peers {
		if p == c.nodes[2].Addr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("answer provider not promoted: %v", peers)
	}
	// The second query reaches the provider directly. Which copy of the
	// agent executes at node 2 — the direct one (hop 1) or the clone
	// relayed through node 1 (hop 2) — is a benign race, so to assert
	// the direct link deterministically, isolate it.
	c.nodes[0].SetPeers([]Peer{{Addr: c.nodes[2].Addr()}})
	res2, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "want"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) != 1 || res2.Answers[0].Hops != 1 {
		t.Fatalf("post-reconfig answer hops = %+v", res2.Answers)
	}
}

func TestStaticStrategyNeverReconfigures(t *testing.T) {
	c := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.Strategy = reconfig.Static{}
		cfg.MaxPeers = 1
	}, func(i int, s *storm.Store) {
		if i == 2 {
			s.Put(&storm.Object{Name: "hit", Keywords: []string{"want"}})
		}
	})
	c.wire(topology.Line(3))

	before := c.nodes[0].PeerAddrs()
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "want"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigured {
		t.Fatal("static node reconfigured")
	}
	after := c.nodes[0].PeerAddrs()
	if len(before) != len(after) || before[0] != after[0] {
		t.Fatalf("peers changed: %v -> %v", before, after)
	}
}

func TestMode2HintsAndFetch(t *testing.T) {
	c := newCluster(t, 2, static, func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "bigfile", Keywords: []string{"video"},
				Data: []byte("lots of bytes")})
		}
	})
	c.wire(topology.Line(2))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "video"}, QueryOptions{
		Mode: 2, Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("mode 2 returned data: %+v", res.Answers)
	}
	if len(res.Hints) != 1 || res.Hints[0].Result.Name != "bigfile" || res.Hints[0].Result.Data != nil {
		t.Fatalf("hints = %+v", res.Hints)
	}
	// Follow-up fetch retrieves the data out-of-network.
	got, err := c.nodes[0].Fetch(res.Hints[0].PeerAddr, []string{"bigfile"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Data) != "lots of bytes" {
		t.Fatalf("fetched = %+v", got)
	}
}

func TestFetchRemovedObjectReturnsEmpty(t *testing.T) {
	// §2: the target may have removed the content between hint and fetch.
	c := newCluster(t, 2, nil, func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "ghost", Keywords: []string{"g"}})
		}
	})
	c.wire(topology.Line(2))
	c.nodes[1].store.Delete("ghost")
	got, err := c.nodes[0].Fetch(c.nodes[1].Addr(), []string{"ghost"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fetched deleted object: %+v", got)
	}
}

// TestFetchIsNotAnAnswer: a fetch reply completes the fetch and nothing
// else — no agent-answered event for a query that was never issued, and
// no sample in the answer-hops histogram.
func TestFetchIsNotAnAnswer(t *testing.T) {
	c := newCluster(t, 2, static, func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "doc", Keywords: []string{"k"}, Data: []byte("body")})
		}
	})
	c.wire(topology.Line(2))
	base := c.nodes[0]
	got, err := base.Fetch(c.nodes[1].Addr(), []string{"doc"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Data) != "body" {
		t.Fatalf("fetched = %+v", got)
	}
	if n := countEvents(base, obs.EvAgentAnswered, "", ""); n != 0 {
		t.Fatalf("a fetch reply was journalled as %d agent answers", n)
	}
	if fam := base.Metrics().Snapshot().Family("bestpeer_node_answer_hops"); fam != nil {
		for _, m := range fam.Metrics {
			if m.Count != 0 {
				t.Fatalf("a fetch reply was counted as an answer: answer_hops count=%d sum=%v", m.Count, m.Sum)
			}
		}
	}
}

func TestClassShippingOnColdPeer(t *testing.T) {
	c := newCluster(t, 2, func(i int, cfg *Config) {
		cfg.Strategy = reconfig.Static{}
		if i == 1 {
			reg := agent.NewRegistry()
			if err := agent.RegisterBuiltinsDormant(reg); err != nil {
				t.Fatal(err)
			}
			cfg.Registry = reg
		}
	}, func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "remote-hit", Keywords: []string{"kw"}})
		}
	})
	c.wire(topology.Line(2))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "kw"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Result.Name != "remote-hit" {
		t.Fatalf("cold peer answers = %+v", res.Answers)
	}
	if !c.nodes[1].registry.Installed(agent.KeywordClass) {
		t.Fatal("class not installed after shipping")
	}
	if st := c.nodes[0].Stats(); st.ClassesShipped != 1 {
		t.Fatalf("origin ClassesShipped = %d", st.ClassesShipped)
	}
	if st := c.nodes[1].Stats(); st.ClassesInstalled != 1 {
		t.Fatalf("dest ClassesInstalled = %d", st.ClassesInstalled)
	}
	// Second query: class is cached, no new installs.
	if _, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "kw"}, QueryOptions{
		Timeout: time.Second, WaitAnswers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.nodes[1].Stats(); st.ClassesInstalled != 1 {
		t.Fatalf("class re-installed: %d", st.ClassesInstalled)
	}
}

func TestFilterAgentAcrossNetwork(t *testing.T) {
	c := newCluster(t, 3, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("small-%d", i), Keywords: []string{"f"}, Data: []byte("xy")})
		s.Put(&storm.Object{Name: fmt.Sprintf("large-%d", i), Keywords: []string{"f"},
			Data: make([]byte, 600)})
	})
	c.wire(topology.Star(3))
	res, err := c.nodes[0].Query(&agent.FilterAgent{Expr: "keyword=f & size>500", IncludeData: false},
		QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(res.Answers))
	}
	for _, a := range res.Answers {
		if a.Result.Name[:5] != "large" {
			t.Fatalf("filter leaked %s", a.Result.Name)
		}
	}
}

func TestAccessControlAcrossNetwork(t *testing.T) {
	seed := func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{
				Name: "salaries", Keywords: []string{"hr"},
				Kind: storm.ActiveObject, ActiveClass: "level-filter",
				Data: []byte("headcount 40\n!5 ceo 1000000"),
			})
		}
	}
	// Low-clearance base node.
	low := newCluster(t, 2, func(i int, cfg *Config) { cfg.AccessLevel, cfg.Strategy = 0, reconfig.Static{} }, seed)
	low.wire(topology.Line(2))
	res, err := low.nodes[0].Query(&agent.KeywordAgent{Query: "hr"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || string(res.Answers[0].Result.Data) != "headcount 40" {
		t.Fatalf("low-clearance saw %q", res.Answers[0].Result.Data)
	}

	// High-clearance base node.
	high := newCluster(t, 2, func(i int, cfg *Config) { cfg.AccessLevel, cfg.Strategy = 9, reconfig.Static{} }, seed)
	high.wire(topology.Line(2))
	res, err = high.nodes[0].Query(&agent.KeywordAgent{Query: "hr"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || string(res.Answers[0].Result.Data) != "headcount 40\nceo 1000000" {
		t.Fatalf("high-clearance saw %q", res.Answers[0].Result.Data)
	}
}

func TestJoinAndRejoinThroughLiglo(t *testing.T) {
	nw := transport.NewInProc()
	srv, err := liglo.NewServer(nw, "liglo-main", liglo.ServerConfig{InitialPeers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mk := func(addr string) *Node {
		st, err := storm.Open(filepath.Join(t.TempDir(), addr+".storm"), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{Network: nw, ListenAddr: addr, Store: st, MaxPeers: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close(); st.Close() })
		return n
	}
	a := mk("peer-a")
	b := mk("peer-b")

	if err := a.Join([]string{srv.Addr()}); err != nil {
		t.Fatal(err)
	}
	if a.ID().IsZero() || len(a.Peers()) != 0 {
		t.Fatalf("first joiner: id=%v peers=%v", a.ID(), a.Peers())
	}
	if err := b.Join([]string{srv.Addr()}); err != nil {
		t.Fatal(err)
	}
	peers := b.Peers()
	if len(peers) != 1 || peers[0].Addr != "peer-a" || peers[0].ID != a.ID() {
		t.Fatalf("second joiner peers = %+v", peers)
	}

	// a "moves": new node process at a new address, same identity.
	a.Close()
	a2 := mk("peer-a-moved")
	a2.mu.Lock()
	a2.id = a.ID()
	a2.mu.Unlock()
	if err := a2.Rejoin(); err != nil {
		t.Fatal(err)
	}

	// b rejoins and discovers a's new address via LIGLO.
	if err := b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	peers = b.Peers()
	if len(peers) != 1 || peers[0].Addr != "peer-a-moved" {
		t.Fatalf("rejoined peers = %+v", peers)
	}
}

func TestRejoinDropsOfflinePeers(t *testing.T) {
	nw := transport.NewInProc()
	srv, err := liglo.NewServer(nw, "liglo-x", liglo.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st1, _ := storm.Open(filepath.Join(t.TempDir(), "a.storm"), storm.Options{})
	defer st1.Close()
	st1.Put(&storm.Object{Name: "a-obj", Keywords: []string{"kw-a"}})
	a, err := NewNode(Config{Network: nw, ListenAddr: "pa", Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Join([]string{srv.Addr()})

	st2, _ := storm.Open(filepath.Join(t.TempDir(), "b.storm"), storm.Options{})
	defer st2.Close()
	b, err := NewNode(Config{Network: nw, ListenAddr: "pb", Store: st2,
		QRoute: qroute.Options{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Join([]string{srv.Addr()})
	if len(b.Peers()) != 1 {
		t.Fatalf("b peers = %v", b.Peers())
	}
	// b sends to a and learns it as an answerer: a send queue and
	// routing state that the drop must release.
	res, err := b.Query(&agent.KeywordAgent{Query: "kw-a"}, QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 1})
	if err != nil || len(res.Answers) != 1 {
		t.Fatalf("query via a = %+v, %v", res, err)
	}

	// a disappears; the validator notices; b's rejoin drops it.
	a.Close()
	nw.Drop("pa")
	srv.CheckNow()
	if err := b.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if len(b.Peers()) != 0 {
		t.Fatalf("offline peer kept: %v", b.Peers())
	}
	if b.msgr.Forget("pa") {
		t.Fatal("the dropped peer's send queue outlived the drop")
	}
	if n := b.qr.ForgetNeighbor("pa"); n != 0 {
		t.Fatalf("%d routing entries for the dropped peer outlived the drop", n)
	}
}

func TestProbe(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	if !c.nodes[0].Probe(c.nodes[1].Addr(), time.Second) {
		t.Fatal("probe of live peer failed")
	}
	if c.nodes[0].Probe("nonexistent", 100*time.Millisecond) {
		t.Fatal("probe of dead peer succeeded")
	}
}

func TestQueryAfterCloseFails(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	c.nodes[0].Close()
	if _, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "q"}, QueryOptions{}); err != errNodeClosed {
		t.Fatalf("query after close: %v", err)
	}
	if _, err := c.nodes[0].Fetch("x", nil, time.Millisecond); err != errNodeClosed {
		t.Fatalf("fetch after close: %v", err)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{Network: transport.NewInProc()}); err == nil {
		t.Fatal("missing store accepted")
	}
	st, _ := storm.Open(filepath.Join(t.TempDir(), "v.storm"), storm.Options{})
	defer st.Close()
	if _, err := NewNode(Config{Store: st}); err == nil {
		t.Fatal("missing network accepted")
	}
}

func TestAddPeerSemantics(t *testing.T) {
	c := newCluster(t, 1, func(i int, cfg *Config) { cfg.MaxPeers = 2 }, nil)
	n := c.nodes[0]
	if !n.AddPeer(Peer{Addr: "x"}) {
		t.Fatal("first add failed")
	}
	if n.AddPeer(Peer{Addr: "x"}) {
		t.Fatal("duplicate add succeeded")
	}
	if !n.AddPeer(Peer{Addr: "y"}) {
		t.Fatal("second add failed")
	}
	if n.AddPeer(Peer{Addr: "z"}) {
		t.Fatal("add beyond MaxPeers succeeded")
	}
	if got := n.PeerAddrs(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("peers = %v", got)
	}
}

func TestWaitAnswersStopsEarly(t *testing.T) {
	c := newCluster(t, 4, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("m-%d", i), Keywords: []string{"m"}})
	})
	c.wire(topology.Star(4))
	start := time.Now()
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "m"}, QueryOptions{
		Timeout: 10 * time.Second, WaitAnswers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 4 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitAnswers did not stop early")
	}
}

func TestSkipLocal(t *testing.T) {
	c := newCluster(t, 2, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("s-%d", i), Keywords: []string{"s"}})
	})
	c.wire(topology.Line(2))
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "s"}, QueryOptions{
		Timeout: time.Second, WaitAnswers: 1, SkipLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := collectNames(res.Answers)
	if names["s-0"] {
		t.Fatal("local result included despite SkipLocal")
	}
	if !names["s-1"] {
		t.Fatal("remote result missing")
	}
}

func TestDedupBoundedMemory(t *testing.T) {
	d := newDedup(4)
	for i := 0; i < 100; i++ {
		if d.Seen(wire.NewMsgID()) {
			t.Fatal("fresh id reported seen")
		}
	}
	if len(d.set) > 4 {
		t.Fatalf("dedup grew to %d", len(d.set))
	}
	id := wire.NewMsgID()
	d.Seen(id)
	if !d.Seen(id) {
		t.Fatal("recent id forgotten")
	}
}

func TestDedupEvictionOrder(t *testing.T) {
	d := newDedup(2)
	a, b, c := wire.NewMsgID(), wire.NewMsgID(), wire.NewMsgID()
	d.Seen(a)
	d.Seen(b)
	d.Seen(c) // evicts a
	if d.Seen(a) {
		t.Fatal("evicted id still remembered")
	}
	// b was evicted when a re-entered.
	if !d.Seen(c) {
		t.Fatal("c forgotten prematurely")
	}
}
