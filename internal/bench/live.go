package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
	"bestpeer/internal/workload"
)

// LiveResult is one query round executed on the real (in-process) stack
// rather than the simulator.
type LiveResult struct {
	// Completion is the wall-clock time of the last answer.
	Completion time.Duration
	// TotalAnswers counts the results received.
	TotalAnswers int
	// agentsForwarded sums, over all nodes, the clone-forwards performed
	// during the round — a load metric independent of wall-clock noise.
	agentsForwarded uint64
	// MaxHops is the largest hop count among the answers.
	MaxHops int
}

// LiveCluster is a real BestPeer network running in-process: the
// reference the simulator's bpSim answers to on everything that does not
// depend on time (TestLiveMatchesSimCounts), and the live section of a
// bpbench report.
type LiveCluster struct {
	dir   string
	nodes []*core.Node
	store []*storm.Store
	base  int
	query string
	spec  *workload.Spec
}

// NewLiveCluster builds and wires a live network over tp. Each node's
// store is populated from spec (use a small ObjectsPerNode — this is the
// real storage engine).
func NewLiveCluster(tp *topology.Topology, spec *workload.Spec, query string, strategy reconfig.Strategy, maxPeers int) (*LiveCluster, error) {
	dir, err := os.MkdirTemp("", "bestpeer-live")
	if err != nil {
		return nil, err
	}
	lc := &LiveCluster{dir: dir, base: tp.Base, query: query, spec: spec}
	nw := transport.NewInProc()
	for i := 0; i < tp.N; i++ {
		st, err := storm.Open(filepath.Join(dir, fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			lc.Close()
			return nil, err
		}
		if err := spec.Populate(i, st); err != nil {
			_ = st.Close() // already failing; the populate error wins
			lc.Close()
			return nil, err
		}
		node, err := core.NewNode(core.Config{
			Network:    nw,
			ListenAddr: fmt.Sprintf("live-%d", i),
			Store:      st,
			MaxPeers:   maxPeers,
			DefaultTTL: 64,
			Strategy:   strategy,
		})
		if err != nil {
			_ = st.Close() // already failing; the node error wins
			lc.Close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, node)
		lc.store = append(lc.store, st)
	}
	for i, node := range lc.nodes {
		var peers []core.Peer
		for _, j := range tp.Peers(i) {
			peers = append(peers, core.Peer{Addr: lc.nodes[j].Addr()})
		}
		node.SetPeers(peers)
	}
	return lc, nil
}

// baseNode returns the query-issuing node.
func (lc *LiveCluster) baseNode() *core.Node { return lc.nodes[lc.base] }

// settleQuiet is how long the fleet's message counters must stand still
// before settle believes the flood is over. A frame a node has received
// but not yet forwarded is invisible to them while its handler runs, so
// the window must outlast a handler the OS has descheduled on a loaded
// machine, not just one tick.
const settleQuiet = 20 * time.Millisecond

// settle waits, for at most limit, until the fleet has stopped talking:
// every frame sent has been received, and the counters have not moved
// for settleQuiet.
func (lc *LiveCluster) settle(limit time.Duration) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	expired := time.After(limit)
	var last [3]uint64
	quietSince := time.Now()
	for {
		var now [3]uint64
		for _, n := range lc.nodes {
			s := n.MessengerStats()
			now[0] += s.Sent
			now[1] += s.Received
			now[2] += s.Dropped
		}
		if now != last || now[0] != now[1] {
			last, quietSince = now, time.Now()
		} else if time.Since(quietSince) >= settleQuiet {
			return
		}
		select {
		case <-tick.C:
		case <-expired:
			return
		}
	}
}

// RunRound issues the cluster's query once from the base, waits for the
// expected number of answers and then for the flood itself to end, both
// within the timeout: a node without matches owes the base no answer, so
// its clones may still be travelling when the last answer is in.
func (lc *LiveCluster) RunRound(timeout time.Duration) (LiveResult, error) {
	start := time.Now()
	expected := 0
	for i := range lc.nodes {
		if i != lc.base {
			expected += lc.spec.MatchCount(i, lc.query)
		}
	}
	var before uint64
	for _, n := range lc.nodes {
		before += n.Stats().AgentsForwarded
	}
	res, err := lc.baseNode().Query(&agent.KeywordAgent{Query: lc.query}, core.QueryOptions{
		Timeout:     timeout,
		WaitAnswers: expected,
		SkipLocal:   true,
	})
	if err != nil {
		return LiveResult{}, err
	}
	lc.settle(timeout - time.Since(start))
	var after uint64
	for _, n := range lc.nodes {
		after += n.Stats().AgentsForwarded
	}
	out := LiveResult{TotalAnswers: len(res.Answers), agentsForwarded: after - before}
	for _, a := range res.Answers {
		if a.At > out.Completion {
			out.Completion = a.At
		}
		if a.Hops > out.MaxHops {
			out.MaxHops = a.Hops
		}
	}
	return out, nil
}

// LiveMetrics is the observability section of one scheme's live run:
// network-wide message and agent counters summed over every node's
// registry, the base's answer-hop histogram, and the base's full registry
// snapshot for anything the headline numbers leave out.
type LiveMetrics struct {
	MessagesSent    uint64               `json:"messages_sent"`
	MessagesDropped uint64               `json:"messages_dropped"`
	AgentsExecuted  uint64               `json:"agents_executed"`
	AgentsForwarded uint64               `json:"agents_forwarded"`
	AnswerHops      []obs.BucketSnapshot `json:"answer_hops,omitempty"`
	Base            *obs.Snapshot        `json:"base_registry,omitempty"`
}

// sumFamily adds up every labeled instance of the named family.
func sumFamily(s *obs.Snapshot, name string) uint64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	total := uint64(0)
	for _, m := range f.Metrics {
		total += uint64(m.Value)
	}
	return total
}

// Metrics snapshots the cluster's registries into the report section.
func (lc *LiveCluster) Metrics() LiveMetrics {
	var out LiveMetrics
	for _, n := range lc.nodes {
		snap := n.Metrics().Snapshot()
		out.MessagesSent += sumFamily(snap, "bestpeer_transport_messages_sent_total")
		out.MessagesDropped += sumFamily(snap, "bestpeer_transport_messages_dropped_total")
		out.AgentsExecuted += sumFamily(snap, "bestpeer_node_agents_executed_total")
		out.AgentsForwarded += sumFamily(snap, "bestpeer_node_agents_forwarded_total")
	}
	base := lc.baseNode().Metrics().Snapshot()
	if f := base.Family("bestpeer_node_answer_hops"); f != nil && len(f.Metrics) > 0 {
		out.AnswerHops = f.Metrics[0].Buckets
	}
	out.Base = base
	return out
}

// Close shuts the cluster down and removes its on-disk state.
func (lc *LiveCluster) Close() {
	for _, n := range lc.nodes {
		_ = n.Close() // teardown is best-effort; nothing to report to
	}
	for _, s := range lc.store {
		_ = s.Close() // teardown is best-effort; the dir is removed anyway
	}
	os.RemoveAll(lc.dir)
}
