package core

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/wire"
)

// waitForSpans polls the base's trace until it holds at least want spans
// (spans travel asynchronously on the return path).
func waitForSpans(t *testing.T, n *Node, id wire.MsgID, want int) *obs.QueryTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr, ok := n.Trace(id)
		if ok && len(tr.Spans) >= want {
			return tr
		}
		if time.Now().After(deadline) {
			got := 0
			if ok {
				got = len(tr.Spans)
			}
			t.Fatalf("trace has %d spans, want >= %d", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueryTraceLineMatchesHops(t *testing.T) {
	// Ten nodes in a line, all matching: the trace must hold one span
	// per node whose hop number equals the answer's travelled distance,
	// and the tree must chain node i under node i-1.
	const n = 10
	c := newCluster(t, n, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("t-%d", i), Keywords: []string{"t"}})
	})
	c.wire(topology.Line(n))

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "t"}, QueryOptions{
		TTL: n, Timeout: 5 * time.Second, WaitAnswers: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != n {
		t.Fatalf("answers = %d, want %d", len(res.Answers), n)
	}
	tr := waitForSpans(t, c.nodes[0], res.ID, n)

	// Every answer's hop count must agree with that peer's span.
	spanByPeer := make(map[string]wire.TraceSpan)
	for _, s := range tr.Spans {
		if s.Drop != "" {
			t.Fatalf("unexpected drop span in a line: %+v", s)
		}
		spanByPeer[s.Peer] = s
	}
	for _, a := range res.Answers {
		s, ok := spanByPeer[a.PeerAddr]
		if !ok {
			t.Fatalf("no span from answering peer %s", a.PeerAddr)
		}
		if s.Hop != a.Hops {
			t.Fatalf("span hop %d != answer hops %d for %s", s.Hop, a.Hops, a.PeerAddr)
		}
		if s.Matches != 1 {
			t.Fatalf("span matches = %d, want 1 for %s", s.Matches, a.PeerAddr)
		}
	}
	if got := tr.MaxHop(); got != n-1 {
		t.Fatalf("MaxHop = %d, want %d", got, n-1)
	}

	// Each interior node forwarded to exactly one onward peer.
	for _, s := range tr.Spans {
		last := s.Peer == c.nodes[n-1].Addr()
		if !last && s.FanOut != 1 {
			t.Fatalf("span fan-out = %d, want 1 for %s", s.FanOut, s.Peer)
		}
		if last && s.FanOut != 0 {
			t.Fatalf("tail fan-out = %d, want 0", s.FanOut)
		}
	}

	// The tree is a single chain rooted at the base's local span.
	roots := tr.Tree()
	if len(roots) != 2 {
		// Base local span (parent "") and node-1's span (parent = base).
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	var chain *obs.SpanNode
	for _, r := range roots {
		if r.Span.Peer != c.nodes[0].Addr() {
			chain = r
		}
	}
	depth := 0
	for chain != nil {
		depth++
		if len(chain.Children) > 1 {
			t.Fatalf("line trace branched at %s", chain.Span.Peer)
		}
		if len(chain.Children) == 0 {
			chain = nil
		} else {
			chain = chain.Children[0]
		}
	}
	if depth != n-1 {
		t.Fatalf("chain depth = %d, want %d", depth, n-1)
	}
}

func TestQueryTraceRecordsDuplicateDrops(t *testing.T) {
	// A triangle: both of the base's peers forward to each other, so each
	// receives a duplicate and reports a duplicate-drop span.
	c := newCluster(t, 3, static, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("d-%d", i), Keywords: []string{"d"}})
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

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "d"}, QueryOptions{
		Timeout: 3 * time.Second, WaitAnswers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 executed spans (base + two peers) + 2 duplicate drops.
	tr := waitForSpans(t, c.nodes[0], res.ID, 5)
	dups := 0
	for _, s := range tr.Spans {
		if s.Drop == "duplicate" {
			dups++
		}
	}
	if dups != 2 {
		t.Fatalf("duplicate-drop spans = %d, want 2 (%+v)", dups, tr.Spans)
	}
	// The drop metric agrees. (Which node drops depends on arrival
	// order — a peer's forward can even loop back to the base — so only
	// the network-wide total is deterministic.)
	total := uint64(0)
	for _, node := range c.nodes {
		total += node.Stats().DuplicatesDropped
	}
	if total != 2 {
		t.Fatalf("DuplicatesDropped across the network = %d, want 2", total)
	}
}

func TestNodeMetricsCoverAllFamilies(t *testing.T) {
	// One registry per node carries the node, transport, LIGLO-client and
	// StorM families, so a single scrape sees the whole stack.
	c := newCluster(t, 2, static, nil)
	c.wire(topology.Line(2))
	if _, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "kw1"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	}); err != nil {
		t.Fatal(err)
	}

	snap := c.nodes[0].Metrics().Snapshot()
	if got := snap.Value("bestpeer_node_queries_total"); got != 1 {
		t.Fatalf("queries_total = %v, want 1", got)
	}
	for _, fam := range []string{
		"bestpeer_node_agents_forwarded_total",
		"bestpeer_node_answer_hops",
		"bestpeer_transport_messages_sent_total",
		"bestpeer_transport_bytes_sent_total",
		"bestpeer_transport_frames_sent_total",
		"bestpeer_transport_send_queue_depth",
		"bestpeer_liglo_client_calls_total",
		"bestpeer_storm_objects",
	} {
		if snap.Family(fam) == nil {
			t.Fatalf("family %s missing from node registry", fam)
		}
	}
	// Every frame written is counted once as a message and under exactly
	// one form, and is at least its five-byte header. The send worker
	// counts after the write, so the answer can be back before it has.
	waitUntil(t, "the message, frame and byte counters to agree", func() bool {
		snap := c.nodes[0].Metrics().Snapshot()
		sent := snap.Value("bestpeer_transport_messages_sent_total")
		return sent >= 1 && snap.Total("bestpeer_transport_frames_sent_total") == sent &&
			snap.Total("bestpeer_transport_bytes_sent_total") >= 5*sent
	})
}

func TestServeAdminExposesNodeState(t *testing.T) {
	c := newCluster(t, 2, static, nil)
	c.wire(topology.Line(2))
	node := c.nodes[0]

	srv, err := node.ServeAdmin("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.ServeAdmin(""); err == nil {
		t.Fatal("second ServeAdmin should fail while the first is up")
	}

	res, err := node.Query(&agent.KeywordAgent{Query: "kw1"}, QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForSpans(t, node, res.ID, 2)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, fam := range []string{
		"bestpeer_node_queries_total",
		"bestpeer_transport_messages_sent_total",
		"bestpeer_transport_bytes_sent_total",
		"bestpeer_transport_frames_sent_total",
		"bestpeer_liglo_client_calls_total",
		"bestpeer_storm_objects",
	} {
		if !strings.Contains(body, fam) {
			t.Fatalf("/metrics missing %s:\n%s", fam, body)
		}
	}
	if code, body = get("/healthz"); code != http.StatusOK || !strings.Contains(body, node.Addr()) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body = get("/peers"); code != http.StatusOK || !strings.Contains(body, c.nodes[1].Addr()) {
		t.Fatalf("/peers = %d %q", code, body)
	}
	if code, body = get("/queries/" + res.ID.String()); code != http.StatusOK || !strings.Contains(body, "tree") {
		t.Fatalf("/queries/<id> = %d %q", code, body)
	}

	// Close tears the admin endpoint down with the node.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("admin endpoint still serving after node close")
	}
}
