// Package bench reproduces the paper's evaluation (§4) on the
// deterministic discrete-event simulator. Each scheme — Single-/Multi-
// Thread Client-Server, static BestPeer (BPS), reconfigurable BestPeer
// (BPR) and Gnutella — is modelled as an event-driven protocol over
// netsim hosts, with costs calibrated to the paper's era (Pentium II
// 200 MHz nodes on a shared LAN) so the figures reproduce the *shape* of
// the published results: who wins, by what rough factor, and where the
// crossovers fall.
package bench

import "time"

// CostModel is the shared calibration for all schemes.
type CostModel struct {
	// latency is one-way propagation delay between any two hosts.
	latency time.Duration
	// bandwidth is per-host link rate in bytes/second (charged once on
	// the sender's uplink and once on the receiver's downlink).
	bandwidth float64

	// querySize is the wire size of a plain query (CS and Gnutella).
	querySize int
	// agentSize is a serialized agent: packet header, class name, state.
	agentSize int
	// classSize is the class payload shipped to a node lacking the
	// agent's class.
	classSize int
	// resultOverhead is the fixed portion of a result/hit message.
	resultOverhead int
	// nameSize is the per-hit size when only names travel (hints,
	// Gnutella QueryHits, the Fig. 8 setup).
	nameSize int

	// compression is the gzip ratio applied to compressible messages
	// (agents, queries, name lists); object payloads are random data
	// and do not compress.
	compression float64

	// AgentStartup is the cost of reconstructing an incoming agent and
	// preparing its thread of execution — the code-shipping overhead
	// that makes CS win on flat topologies.
	AgentStartup time.Duration
	// classInstall is the extra cost of installing a shipped class.
	classInstall time.Duration
	// queryStartup is a CS/Gnutella server's per-query setup cost.
	queryStartup time.Duration
	// ForwardCost is the CPU cost of receiving a descriptor, checking it
	// for duplication/expiry and cloning it to each peer — paid per hop
	// by BestPeer agents, Gnutella queries and CS queries alike. It is
	// what makes "routing through the entire intermediate peers" slow on
	// the first BestPeer run (Fig. 8a) and every Gnutella run.
	ForwardCost time.Duration
	// MatchPerObject is the per-object comparison cost during the scan.
	MatchPerObject time.Duration
	// relayCost is the CPU cost of relaying one message along the
	// return path (CS answers).
	relayCost time.Duration
	// gnuRelay is the per-hop cost of a Gnutella servant processing and
	// re-routing a QueryHit descriptor. FURI is a full Java servant with
	// a GUI; per-descriptor handling on a 200 MHz machine is substantial
	// and is what makes path-routed hits expensive in Fig. 8.
	gnuRelay time.Duration
}

// DefaultCost returns the calibration used throughout the evaluation:
// a 100 Mbit/s shared LAN of 200 MHz machines. On this balance the wire
// is fast relative to per-hop protocol work, so topology and routing —
// not raw transfer — shape the results, as in the paper's testbed.
func DefaultCost() CostModel {
	return CostModel{
		latency:        500 * time.Microsecond,
		bandwidth:      1.25e7, // 100 Mbit/s
		querySize:      128,
		agentSize:      2048,
		classSize:      6144,
		resultOverhead: 96,
		nameSize:       48,
		compression:    0.55,
		AgentStartup:   25 * time.Millisecond,
		classInstall:   15 * time.Millisecond,
		queryStartup:   2 * time.Millisecond,
		ForwardCost:    8 * time.Millisecond,
		MatchPerObject: 60 * time.Microsecond,
		relayCost:      15 * time.Millisecond,
		gnuRelay:       25 * time.Millisecond,
	}
}

// compressed scales a compressible message size by the gzip ratio.
func (c CostModel) compressed(n int) int {
	if c.compression <= 0 || c.compression >= 1 {
		return n
	}
	return int(float64(n) * c.compression)
}

// scanCost is the CPU time to compare every local object with the query.
func (c CostModel) scanCost(objects int) time.Duration {
	return time.Duration(objects) * c.MatchPerObject
}

// resultSize is the wire size of a result batch carrying `hits` answers.
// With data, each hit carries an object payload (incompressible); without
// data only names travel (compressible).
func (c CostModel) resultSize(hits, objectSize int, includeData bool) int {
	if hits == 0 {
		return 0
	}
	if includeData {
		return c.resultOverhead + hits*(c.nameSize+objectSize)
	}
	return c.compressed(c.resultOverhead + hits*c.nameSize)
}
