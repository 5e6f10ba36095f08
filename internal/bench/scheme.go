package bench

import (
	"fmt"
	"sort"
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/qroute"
	"bestpeer/internal/topology"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

// Params configures one simulated experiment.
type Params struct {
	// Cost calibrates the simulated hardware and network.
	Cost CostModel
	// Spec generates the per-node data (object counts drive scan and
	// transfer costs).
	Spec *workload.Spec
	// Query is the keyword searched for.
	Query string
	// MaxPeers is the direct-peer budget of the reconfigurable base
	// node (the paper's k). Zero defaults to 8.
	MaxPeers int
	// TTL bounds propagation. Zero defaults to 64 (large enough that
	// every topology in the paper is fully covered, as in their runs).
	TTL int
	// IncludeData makes answers carry object payloads; false returns
	// names only (the Fig. 8 configuration).
	IncludeData bool
	// ColdStart makes every non-base node start without the agent class
	// installed, so the first round pays class shipping. The default
	// (false) models the realistic deployment where the standard search
	// class ships with the BestPeer software, as it does in the live
	// implementation's built-in registry.
	ColdStart bool
	// DataShip switches the BestPeer model from code-shipping to naive
	// data-shipping: peers return their entire store and the base
	// filters locally. This is the alternative §6 of the paper discusses
	// choosing between at runtime.
	DataShip bool
	// QRoute enables the answer cache + learned selective routing at the
	// simulated base node. The zero value keeps plain flooding, exactly
	// like a live node with the subsystem off.
	QRoute qroute.Options
}

func (p Params) withDefaults() Params {
	if p.MaxPeers == 0 {
		p.MaxPeers = 8
	}
	if p.TTL == 0 {
		p.TTL = 64
	}
	return p
}

// Event is one answer batch arriving at the base node.
type Event struct {
	// Node is the answering node's index.
	Node int
	// Answers is how many results the batch carried.
	Answers int
	// Hops is the answering node's distance when it matched.
	Hops int
	// At is the simulated arrival time, from query start.
	At time.Duration
}

// RunResult is one query execution's outcome.
type RunResult struct {
	// Completion is when the last answer arrived (the paper's metric).
	Completion time.Duration
	// Events are the answer arrivals in time order.
	Events []Event
	// TotalAnswers sums Events' answers.
	TotalAnswers int
	// Msgs and Bytes count delivered traffic during the run; MsgsSent
	// counts messages handed to the network, whether or not they arrived
	// before quiescence. All three come from the netsim.Network counters
	// — the one accounting path every scheme shares.
	Msgs     uint64
	Bytes    uint64
	MsgsSent uint64
	// Route records how the round's fan-out was planned: "flood",
	// "selective", "explore", or "cached" when the whole answer set was
	// served from the base's cache without touching the network.
	Route string
}

// hostThreads is the per-host CPU parallelism of the simulated testbed for
// multi-threaded schemes.
const hostThreads = 8

// nodeAddr names simulated hosts.
func nodeAddr(i int) string { return fmt.Sprintf("n%d", i) }

// newSimNet builds the testbed every figure scheme runs on: one shared LAN
// segment on a fresh clock, one host per topology node delivering to
// handle.
func newSimNet(tp *topology.Topology, cost CostModel, threads int, handle func(node int, env *wire.Envelope)) *netsim.Network {
	net := netsim.NewNetwork(netsim.NewSim(), netsim.Link{Latency: cost.Latency, Bandwidth: cost.Bandwidth})
	net.UseSharedMedium()
	for i := 0; i < tp.N; i++ {
		h := net.AddHost(nodeAddr(i), netsim.HostConfig{Threads: threads})
		h.SetHandler(func(env *wire.Envelope) { handle(i, env) })
	}
	return net
}

// trafficMark is a network's clock and counters when a round starts.
type trafficMark struct {
	started           time.Duration
	msgs, bytes, sent uint64
}

func markTraffic(net *netsim.Network) trafficMark {
	return trafficMark{net.Sim().Now(), net.MsgsDelivered, net.BytesDelivered, net.MsgsSent}
}

// result assembles the round's outcome from the answer arrivals and what
// the network carried since the mark.
func (m trafficMark) result(net *netsim.Network, events []Event, route string) RunResult {
	res := RunResult{
		Events:   append([]Event(nil), events...),
		Msgs:     net.MsgsDelivered - m.msgs,
		Bytes:    net.BytesDelivered - m.bytes,
		MsgsSent: net.MsgsSent - m.sent,
		Route:    route,
	}
	for _, e := range res.Events {
		res.TotalAnswers += e.Answers
		if e.At > res.Completion {
			res.Completion = e.At
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].At < res.Events[j].At })
	return res
}

// expectedAnswers is the ground truth the harness validates runs against:
// total matches over all nodes reachable within ttl hops of the base.
func expectedAnswers(tp *topology.Topology, spec *workload.Spec, query string, ttl int) int {
	dist := tp.BFS(tp.Base)
	total := 0
	for node, d := range dist {
		if d > 0 && d <= ttl { // the base's own data is not a network answer
			total += spec.MatchCount(node, query)
		}
	}
	return total
}
