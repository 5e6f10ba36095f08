package observatory

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
)

func TestTimelineFolding(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EvQueryIssued, Query: "q1", Strategy: "maxcount", Count: 3, Hops: 7},
		{Kind: obs.EvAgentAnswered, Query: "q1", Peer: "n2", Hops: 3, Count: 4},
		{Kind: obs.EvAgentAnswered, Query: "q1", Peer: "n3", Hops: 1, Count: 1},
		{Kind: obs.EvQueryCompleted, Query: "q1", Count: 5},
		{Kind: obs.EvReconfigured, Query: "q1", Strategy: "maxcount", K: 8, Count: 1,
			Scores: []obs.PeerScore{{Addr: "n2", Answers: 4, Rank: 1, Selected: true}}},
		{Kind: obs.EvPeerAdded, Query: "q1", Peer: "n2", Reason: "reconfig"},
		{Kind: obs.EvPeerDropped, Peer: "n9", Reason: "unresponsive"}, // no query: latest round
		// An answered event for a query whose issued event was evicted.
		{Kind: obs.EvAgentAnswered, Query: "lost", Peer: "nx", Hops: 5, Count: 2},
		{Kind: obs.EvQueryIssued, Query: "q2", Strategy: "maxcount", Count: 4},
		{Kind: obs.EvAgentAnswered, Query: "q2", Peer: "n2", Hops: 1, Count: 5},
	}
	rounds := Timeline(events)
	if len(rounds) != 2 {
		t.Fatalf("folded %d rounds, want 2", len(rounds))
	}
	r1 := rounds[0]
	if r1.Query != "q1" || r1.FanOut != 3 || r1.Answers != 5 || r1.AnswerBatches != 2 {
		t.Fatalf("round 1 = %+v", r1)
	}
	// Weighted mean: (4*3 + 1*1) / 5 = 2.6; max 3.
	if r1.MeanAnswerHops != 2.6 || r1.MaxAnswerHops != 3 {
		t.Fatalf("round 1 hops = %v max %d, want 2.6 max 3", r1.MeanAnswerHops, r1.MaxAnswerHops)
	}
	if len(r1.PeersAdded) != 1 || r1.PeersAdded[0] != "n2" ||
		len(r1.PeersDropped) != 1 || r1.PeersDropped[0] != "n9" || r1.EditDistance != 2 {
		t.Fatalf("round 1 edits = %+v", r1)
	}
	if len(r1.Scores) != 1 || !r1.Scores[0].Selected {
		t.Fatalf("round 1 rationale = %+v", r1.Scores)
	}
	r2 := rounds[1]
	if r2.Query != "q2" || r2.MeanAnswerHops != 1 || r2.EditDistance != 0 {
		t.Fatalf("round 2 = %+v", r2)
	}
	if trend := MeanHopsTrend(rounds); trend[0] <= trend[1] {
		t.Fatalf("trend = %v, want decreasing", trend)
	}
}

// fleet boots n connected nodes over the given network, each serving its
// admin endpoint on loopback TCP, and returns the nodes plus their admin
// addresses. Every node's store holds one object matching "music".
func fleet(t *testing.T, nw transport.Network, n int, capacity int) ([]*core.Node, []string) {
	t.Helper()
	nodes := make([]*core.Node, n)
	admins := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.Put(&storm.Object{
			Name:     fmt.Sprintf("music-%d", i),
			Keywords: []string{"music"},
			Data:     []byte{byte(i)},
		})
		node, err := core.NewNode(core.Config{
			Network:         nw,
			ListenAddr:      fmt.Sprintf("node-%d", i),
			Store:           st,
			MaxPeers:        8,
			JournalCapacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := node.ServeAdmin("")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		admins[i] = srv.Addr()
		t.Cleanup(func() {
			node.Close()
			st.Close()
		})
	}
	return nodes, admins
}

func TestFleetScrapeAndTraceAssembly(t *testing.T) {
	nw := transport.NewInProc()
	nodes, admins := fleet(t, nw, 3, 0)
	// Line: 0—1—2, so node 2 answers from two hops out.
	nodes[0].SetPeers([]core.Peer{{Addr: nodes[1].Addr()}})
	nodes[1].SetPeers([]core.Peer{{Addr: nodes[0].Addr()}, {Addr: nodes[2].Addr()}})
	nodes[2].SetPeers([]core.Peer{{Addr: nodes[1].Addr()}})

	res, err := nodes[0].Query(&agent.KeywordAgent{Query: "music"}, core.QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 3 {
		t.Fatalf("query got %d answers, want 3", len(res.Answers))
	}

	c := NewCollector(admins...)
	snap := c.Scrape()
	if len(snap.Nodes) != 3 {
		t.Fatalf("snapshot has %d nodes", len(snap.Nodes))
	}
	for _, v := range snap.Nodes {
		if v.Err != "" {
			t.Fatalf("member %s scrape error: %s", v.Admin, v.Err)
		}
		if v.Metrics == nil || v.Health == nil {
			t.Fatalf("member %s missing metrics/health", v.Admin)
		}
	}
	// Topology reconstructed from /peers must match each node exactly.
	topo := snap.topology()
	for i, n := range nodes {
		want := n.PeerAddrs()
		got := topo[n.Addr()]
		if len(got) != len(want) {
			t.Fatalf("node %d topology = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d topology = %v, want %v", i, got, want)
			}
		}
	}

	// The fleet timeline contains the query with answers from 2 hops.
	rounds := snap.rounds()
	if len(rounds) != 1 || rounds[0].Query != res.ID.String() {
		t.Fatalf("rounds = %+v", rounds)
	}
	// The base's local hit is not an agent batch, so the round records
	// the two remote answers, the farthest from two hops out.
	if rounds[0].Answers < 2 || rounds[0].MaxAnswerHops != 2 {
		t.Fatalf("round = %+v, want >=2 remote answers reaching hop 2", rounds[0])
	}

	// Cross-node trace assembly: the base's spans plus node 1's
	// journalled forward of the agent toward node 2.
	ft := c.assembleTrace(res.ID.String())
	if ft.Base != nodes[0].Addr() {
		t.Fatalf("trace base = %q, want %s", ft.Base, nodes[0].Addr())
	}
	if len(ft.Spans) == 0 || len(ft.Events) == 0 {
		t.Fatalf("trace empty: %+v", ft)
	}
	seen := make(map[string]bool)
	for _, s := range ft.Spans {
		seen[s.Peer] = true
	}
	for _, n := range nodes {
		if !seen[n.Addr()] {
			t.Fatalf("trace is missing node %s: %+v", n.Addr(), ft.Spans)
		}
	}

	// Cursor persistence: a second scrape returns no duplicate events.
	before := len(snap.Events)
	snap2 := c.Scrape()
	for _, e := range snap2.Events[:before] {
		_ = e
	}
	if dup := countQueryIssued(snap2.Events, res.ID.String()); dup != 1 {
		t.Fatalf("query-issued appears %d times after rescrape, want 1", dup)
	}
}

func countQueryIssued(events []obs.Event, q string) int {
	n := 0
	for _, e := range events {
		if e.Kind == obs.EvQueryIssued && e.Query == q {
			n++
		}
	}
	return n
}

func TestObservatoryServerEndpoints(t *testing.T) {
	nw := transport.NewInProc()
	nodes, admins := fleet(t, nw, 2, 0)
	nodes[0].SetPeers([]core.Peer{{Addr: nodes[1].Addr()}})
	nodes[1].SetPeers([]core.Peer{{Addr: nodes[0].Addr()}})
	if _, err := nodes[0].Query(&agent.KeywordAgent{Query: "music"}, core.QueryOptions{
		Timeout: time.Second, WaitAnswers: 2,
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := StartServer("", NewCollector(admins...))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snap FleetSnapshot
	if err := NewCollector().getJSON(srv.Addr(), "/fleet", &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 2 || len(snap.Events) == 0 {
		t.Fatalf("/fleet = %d nodes, %d events", len(snap.Nodes), len(snap.Events))
	}
	var topo map[string][]string
	if err := NewCollector().getJSON(srv.Addr(), "/fleet/topology", &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo[nodes[0].Addr()]) != 1 || topo[nodes[0].Addr()][0] != nodes[1].Addr() {
		t.Fatalf("/fleet/topology = %v", topo)
	}
	var rounds []Round
	if err := NewCollector().getJSON(srv.Addr(), "/fleet/convergence", &rounds); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("/fleet/convergence = %+v", rounds)
	}
}
