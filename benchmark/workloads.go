package main

import (
	"time"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

// workloadDef is one traffic mix: which fleet to stand up and what load to
// put on it. Every workload issues KeywordAgent queries from the base;
// they differ in which layer does the work.
type workloadDef struct {
	name string
	why  string // one line, committed in BENCHMARK.json
	// ungated says why the workload is left out of BENCHMARK.json: it
	// still runs in every mode and under -workload all, but the driver
	// neither runs it nor holds it to the bounds.
	ungated string

	fleet func(sc scale, seed int64) fleetSpec
	load  func(r *run) // starts the load goroutines and returns

	timeout   time.Duration // per-query collection window
	skipLocal bool          // leave the base's own store out
	partialOK bool          // partial recall is legal (selective routing)
	writer    bool          // a writer runs beside the queries
	longTTL   bool          // per-query TTL = fleet size instead of the default 7
}

// ttl is the per-query agent lifetime: zero selects the node default.
func (w *workloadDef) ttl(sc scale) uint8 {
	if w.longTTL {
		// The default TTL 7 would cut a 16-node line short.
		return uint8(sc.nodes)
	}
	return 0
}

// scanSpec is the paper's §4.2 data set: objects of 1 KB over a
// 100-keyword vocabulary, about five times the 64-frame buffer pool at
// the full 1000 objects per node.
func scanSpec(sc scale, seed int64) *workload.Spec {
	s := workload.Default(seed)
	s.ObjectsPerNode = sc.objects
	return s
}

func scanFleet(sc scale, seed int64) fleetSpec {
	return fleetSpec{
		topo:     topology.Tree(sc.nodes, 3),
		data:     scanSpec(sc, seed),
		strategy: reconfig.Static{},
	}
}

const plantedKeyword = "needle"

func lineFleet(sc scale, seed int64) fleetSpec {
	// The last quarter of the line holds the planted answers (nodes
	// 12–15 of 16), five hits each.
	var holders []int
	for i := sc.nodes - sc.nodes/4; i < sc.nodes; i++ {
		holders = append(holders, i)
	}
	return fleetSpec{
		topo: topology.Line(sc.nodes),
		data: &workload.Spec{
			ObjectsPerNode: sc.lineObjects,
			ObjectSize:     256,
			Vocabulary:     100,
			Seed:           seed,
			PlantedKeyword: plantedKeyword,
			Holders:        holders,
			PlantedHits:    5,
		},
		strategy: reconfig.MaxCount{},
	}
}

var workloads = []*workloadDef{
	{
		name:  "flood-scan",
		why:   "closed loop, 2 clients: every query is 15 full store scans over 5x the buffer pool plus 15 result frames of ~10 KB, so storm and the wire result path do the work",
		fleet: scanFleet,
		load: func(r *run) {
			for c := 0; c < 2; c++ {
				r.spawn(func() { r.closedLoopClient(c) })
			}
		},
		timeout:   queryTimeout,
		skipLocal: true,
	},
	{
		name:  "reconfig-line",
		why:   "closed loop, 1 client in 4-query sessions on a 16-node line: run 1 relays tiny frames over 15 hops (transport, wire small frames, core forward), runs 2-4 show what reconfiguration buys; storm idle",
		fleet: lineFleet,
		load: func(r *run) {
			r.spawn(r.sessionClient)
		},
		timeout:   queryTimeout,
		skipLocal: true,
		longTTL:   true,
	},
	{
		name: "zipf-cache",
		why:  "open loop, 50 queries/s of Zipf(1.2) keywords with answer cache and selective routing on: most queries are base-cache hits, so qroute and core do the work; a scan or codec change should not show",
		// Measured, not assumed: see README, "Why zipf-cache is not gated".
		ungated: "its timings spread 13-20 % from run to run at the same seed whatever the estimator (last_p95_ms up to 35 %), above what the contract's 0.25 cap can hold",
		fleet: func(sc scale, seed int64) fleetSpec {
			spec := scanFleet(sc, seed)
			spec.cache = true
			return spec
		},
		load:      func(r *run) { r.openLoopClients() },
		timeout:   cacheTimeout,
		partialOK: true,
	},
	{
		name: "publish-mix",
		why:  "flood-scan's queries from 1 client beside an open-loop writer (200 Put+Delete/s on WAL+catalog+index stores): a read-side win that costs writers shows as put latency",
		fleet: func(sc scale, seed int64) fleetSpec {
			spec := scanFleet(sc, seed)
			spec.durable = true
			return spec
		},
		load: func(r *run) {
			r.spawn(func() { r.closedLoopClient(0) })
			r.spawn(r.openLoopWriter)
		},
		timeout:   queryTimeout,
		skipLocal: true,
		writer:    true,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
