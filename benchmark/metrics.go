package main

import "time"

// value is one reported number. Samples is how many observations stand
// behind a timing (0 for ratios and counters). Window, where set, is the
// same quantity taken over the whole window at once instead of at the
// favourable quartile over its seconds (see stats.go); it is printed
// beside the value and kept in the result file, never gated.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Window  float64 `json:"whole_window,omitempty"`
}

// metricDef describes one metric: BENCHMARK.json carries name, unit,
// better and (end to end only) bound; moves is the prediction, written
// down before measuring, of which end-to-end metric a layer metric
// should move and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, and none is ever 0. A bound is the share of the
// parent's median by which a metric may worsen. One bound covers the
// three workloads of BENCHMARK.json, so the noisiest sets it: each is
// the larger of the issue's starting bound and three times the widest
// quartile spread seen over ten seeds (see README, "Bounds"). Everything
// that is a time sits at the contract's cap of 0.25 although the 35 s
// windows spread 2–6 % on a calm day: on a bad one this shared 2-core
// machine's own speed moves by more than a tenth from one minute to the
// next. The counts repeat to 0.02–0.8 % and get the issue's bounds
// (messages 3 % rather than 2 %, to stay three spreads wide on
// reconfig-line).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "last_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "last_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "first_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "first_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_query", unit: "MB", better: "lower", bound: 0.03},
	{name: "msgs_per_query", unit: "count", better: "lower", bound: 0.03},
	{name: "wire_kb_per_query", unit: "KB", better: "lower", bound: 0.03},
	{name: "recall", unit: "ratio", better: "higher", bound: 0.05},
	{name: "hops_mean", unit: "count", better: "lower", bound: 0.05},
}

// putLive names publish-mix's writer latency: ms from due time to
// Put(+Delete) return on the peers' stores, beside the queries. The
// issue listed it end to end; it is reported with the per-layer metrics
// instead (and printed, ungated, with every end-to-end run) because it
// cannot be held steady on this machine: a sub-millisecond,
// memory-bound operation swings half as much again as the machine's
// speed does (quartile spread 13–25 % over ten seeds, 33 % for the
// variant that was tried on the writer-less workloads).
const (
	putLiveP50 = "storm.put_live_p50_ms"
	putLiveP95 = "storm.put_live_p95_ms"
)

// perLayer lists the layer metrics (layers are the repo's packages).
// The first block is timed by the layer mode on fixed inputs and is the
// same whatever the workload; the blocks marked (run) are read over the
// traced window of the workload at hand and read 0 where the workload
// does not exercise them.
var perLayer = []metricDef{
	{name: "wire.encode_agent_us", unit: "us", better: "lower", moves: "last_p50_ms, cpu_ms_per_query on reconfig-line (30 small frames/query); little on flood-scan"},
	{name: "wire.decode_agent_us", unit: "us", better: "lower", moves: "last_p50_ms on reconfig-line"},
	{name: "wire.encode_agent_alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_query on reconfig-line (a fresh gzip.Writer per frame of 128 B or more)"},
	{name: "wire.encode_result_us", unit: "us", better: "lower", moves: "first_p50_ms, queries_per_s on flood-scan, publish-mix; none on reconfig-line"},
	{name: "wire.decode_result_us", unit: "us", better: "lower", moves: "first_p50_ms on flood-scan, publish-mix"},
	{name: "wire.encode_result_alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_query on flood-scan, publish-mix"},
	{name: "wire.result_frame_ratio", unit: "ratio", better: "lower", moves: "wire_kb_per_query on flood-scan"},
	{name: "transport.oneway_us", unit: "us", better: "lower", moves: "last_p50_ms (x hops_mean) on reconfig-line"},
	{name: "transport.stream_msgs_per_s", unit: "1/s", better: "higher", moves: "queries_per_s on reconfig-line"},
	{name: "transport.stream_mb_per_s", unit: "MB/s", better: "higher", moves: "queries_per_s on flood-scan"},
	{name: "agent.packet_roundtrip_us", unit: "us", better: "lower", moves: "last_p50_ms on reconfig-line"},
	{name: "agent.reconstruct_us", unit: "us", better: "lower", moves: "last_p50_ms on reconfig-line"},
	{name: "agent.results_roundtrip_us", unit: "us", better: "lower", moves: "first_p50_ms on flood-scan"},
	{name: "agent.exec_self_us", unit: "us", better: "lower", moves: "last_p50_ms on flood-scan"},
	{name: "storm.match_cold_ms", unit: "ms", better: "lower", moves: "queries_per_s, last_p50_ms on flood-scan, publish-mix; no change on reconfig-line; zipf-cache only via its misses"},
	{name: "storm.match_alloc_mb", unit: "MB", better: "lower", moves: "alloc_mb_per_query on flood-scan, publish-mix"},
	{name: "storm.match_allocs", unit: "count", better: "lower", moves: "alloc_mb_per_query on flood-scan, publish-mix"},
	{name: "storm.match_warm_ms", unit: "ms", better: "lower", moves: "nothing end to end; separates pool cost from decode cost"},
	{name: "storm.lookup_index_us", unit: "us", better: "lower", moves: "nothing today (agents call Match); the before-row for putting the index on the query path"},
	{name: "storm.put_plain_us", unit: "us", better: "lower", moves: "nothing end to end (no workload writes to plain stores); the idle baseline for put_durable_us"},
	{name: "storm.put_durable_us", unit: "us", better: "lower", moves: "storm.put_live_p50_ms on publish-mix"},
	{name: "storm.delete_durable_us", unit: "us", better: "lower", moves: "storm.put_live_p50_ms on publish-mix"},
	{name: "qroute.get_hit_ns", unit: "ns", better: "lower", moves: "last_p50_ms on zipf-cache"},
	{name: "qroute.put_ns", unit: "ns", better: "lower", moves: "last_p95_ms on zipf-cache"},
	{name: "qroute.select_ns", unit: "ns", better: "lower", moves: "last_p95_ms on zipf-cache"},
	{name: "qroute.observe_ns", unit: "ns", better: "lower", moves: "cpu_ms_per_query on zipf-cache"},
	{name: "core.query_local_us", unit: "us", better: "lower", moves: "last_p50_ms: fixed per-query cost on zipf-cache misses and reconfig-line"},
	{name: "reconfig.select_maxcount_us", unit: "us", better: "lower", moves: "cpu_ms_per_query (small) on reconfig-line"},
	{name: "reconfig.select_minhops_us", unit: "us", better: "lower", moves: "cpu_ms_per_query (small) on reconfig-line"},
	{name: "reconfig.explain_us", unit: "us", better: "lower", moves: "cpu_ms_per_query (small) on reconfig-line"},
	{name: "obs.journal_append_ns", unit: "ns", better: "lower", moves: "cpu_ms_per_query on reconfig-line (most events per ms of work)"},
	{name: "obs.histogram_observe_ns", unit: "ns", better: "lower", moves: "cpu_ms_per_query on reconfig-line"},
	{name: "obs.tracer_record_ns", unit: "ns", better: "lower", moves: "cpu_ms_per_query on reconfig-line"},

	// (run) counters from public snapshots over the traced window.
	{name: "transport.dropped_per_query", unit: "count", better: "lower", moves: "failed share, recall on all; must read 0"},
	{name: "transport.redials", unit: "count", better: "lower", moves: "failed share on all; must read 0"},
	{name: "transport.queue_depth_max", unit: "count", better: "lower", moves: "recall on all; must stay under the 128-deep send queue"},
	{name: "transport.flight_p50_us", unit: "us", better: "lower", moves: "last_p50_ms on reconfig-line: socket write start to last byte read by the peer, in situ, against the idle transport.oneway_us"},
	{name: "storm.pool_hit_rate", unit: "ratio", better: "higher", moves: "queries_per_s on flood-scan"},
	{name: "storm.bytes_per_user_byte", unit: "ratio", better: "lower", moves: "space guard for read/write trade-offs on publish-mix"},
	{name: putLiveP50, unit: "ms", better: "lower", moves: "publish-mix: a read-side win that costs writers, or an index put on the query path that slows Put, shows here"},
	{name: putLiveP95, unit: "ms", better: "lower", moves: "publish-mix: writer tail behind page-by-page read locks"},
	{name: "qroute.base_hit_rate", unit: "ratio", better: "higher", moves: "last_p50_ms, msgs_per_query on zipf-cache"},
	{name: "qroute.serve_hit_rate", unit: "ratio", better: "higher", moves: "cpu_ms_per_query on zipf-cache"},
	{name: "qroute.selective_share", unit: "ratio", better: "higher", moves: "msgs_per_query, recall on zipf-cache"},
	{name: "core.hop_us", unit: "us", better: "lower", moves: "last_p95_ms on reconfig-line (run-1 last median / run-1 hops)"},
	{name: "core.run1_last_p50_ms", unit: "ms", better: "lower", moves: "last_p95_ms on reconfig-line"},
	{name: "core.run4_last_p50_ms", unit: "ms", better: "lower", moves: "last_p50_ms on reconfig-line"},
	{name: "core.execs_per_query", unit: "count", better: "lower", moves: "msgs_per_query on all"},
	{name: "core.forwards_per_query", unit: "count", better: "lower", moves: "msgs_per_query on all"},
	{name: "core.dup_drops_per_query", unit: "count", better: "lower", moves: "msgs_per_query on all"},
	{name: "core.span_exec_ms_p50", unit: "ms", better: "lower", moves: "last_p50_ms on flood-scan"},
	{name: "core.span_wait_ms_p50", unit: "ms", better: "lower", moves: "last_p50_ms on flood-scan; wait far above exec means peers queue behind each other"},
	{name: "core.last_p99_ms", unit: "ms", better: "lower", moves: "informational tail, not gated"},

	// (run) the traced budget: busy ms per query by layer.
	{name: "budget.wire_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query"},
	{name: "budget.transport_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query"},
	{name: "budget.agent_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query"},
	{name: "budget.storm_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query on flood-scan, publish-mix"},
	{name: "budget.qroute_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query on zipf-cache"},
	{name: "budget.reconfig_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query on reconfig-line"},
	{name: "budget.obs_ms_per_query", unit: "ms", better: "lower", moves: "cpu_ms_per_query on reconfig-line"},
	{name: "budget.core_wait_ms_per_query", unit: "ms", better: "lower", moves: "last_p50_ms; wall time, not summed"},
	{name: "budget.cpu_ms_per_query", unit: "ms", better: "lower", moves: "the traced window's own CPU per query, the budget's base"},
	{name: "budget.accounted_share", unit: "ratio", better: "higher", moves: "how much of the CPU per query the layers explain; the rest is GC, scheduler, syscalls and glue"},
	{name: "budget.serial_model_ms", unit: "ms", better: "lower", moves: "reconfig-line: hops x (oneway + packet) + reconstruct + exec + result return"},
	{name: "budget.serial_observed_ms", unit: "ms", better: "lower", moves: "reconfig-line: the run-1 median the model is set against"},

	// the harness itself, and the simulator's constants beside a measurement.
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "traced vs untraced queries_per_s of the same workload"},
	{name: "bench.sched_late_p95_ms", unit: "ms", better: "lower", moves: "open-loop generator lateness on zipf-cache and the publish-mix writer"},
	{name: "sim.agent_startup_ratio", unit: "ratio", better: "lower", moves: "agent.reconstruct_us / bench.DefaultCost().AgentStartup"},
	{name: "sim.match_per_object_ratio", unit: "ratio", better: "lower", moves: "storm.match_cold_ms per object / bench.DefaultCost().MatchPerObject"},
	{name: "sim.forward_cost_ratio", unit: "ratio", better: "lower", moves: "core.hop_us / bench.DefaultCost().ForwardCost (reconfig-line)"},
}

// timing sets the steady p50 and p95 (see stats.go) of samples in ms,
// grouped by the slice of the window their offset falls in, under the
// two names; the whole-window percentiles go beside them for the report.
func timing(m map[string]value, p50, p95 string, refs []time.Duration, samples []float64, window time.Duration) {
	slices := bySlice(refs, samples, window)
	for _, q := range []struct {
		name string
		q    float64
	}{{p50, 0.50}, {p95, 0.95}} {
		v, n := steadyPercentile(slices, q.q)
		whole, _ := percentile(samples, q.q)
		m[q.name] = value{Value: v, Unit: "ms", Samples: n, Window: whole}
	}
}

// putTimings sets the writer's latency (0 over 0 samples on the
// workloads without one).
func putTimings(m map[string]value, o *observed) {
	var refs []time.Duration
	var lat []float64
	for _, p := range o.puts {
		refs = append(refs, p.ref)
		lat = append(lat, ms(p.lat))
	}
	timing(m, putLiveP50, putLiveP95, refs, lat, o.window)
}

// foldEndToEnd turns one untraced execution into the end-to-end metrics,
// plus the writer's latency for the report.
func foldEndToEnd(o *observed) map[string]value {
	m := make(map[string]value)
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	// The first set-ups of a process run while the CPUs are still
	// ramping up from idle (the first is up to three times slower), so
	// set-up time too is read at its favourable quartile.
	m["setup_s"] = value{Value: favourable(setup, "lower"), Unit: "s", Samples: len(setup), Window: median(setup)}

	n := float64(len(o.samples))
	if n == 0 {
		n = 1
	}
	var done []time.Duration
	var first, last []float64
	answers, expected, hops := 0, 0, 0
	for _, s := range o.samples {
		done = append(done, s.ref)
		first = append(first, ms(s.first))
		last = append(last, ms(s.last))
		answers += s.answers
		expected += s.expected
		hops += s.hops
	}
	counts := perSecondCounts(done, o.window)
	m["queries_per_s"] = value{Value: favourable(counts, "higher"), Unit: "1/s", Samples: len(o.samples), Window: mean(counts)}
	timing(m, "last_p50_ms", "last_p95_ms", done, last, o.window)
	timing(m, "first_p50_ms", "first_p95_ms", done, first, o.window)
	putTimings(m, o)
	var cpuPerQuery []float64
	for s := 0; s+1 < len(o.cpuAt) && s < len(counts); s++ {
		// cpuAt has an entry per whole second, for which the per-second
		// rate is the number of completions.
		if counts[s] > 0 {
			cpuPerQuery = append(cpuPerQuery, ms(o.cpuAt[s+1]-o.cpuAt[s])/counts[s])
		}
	}
	m["cpu_ms_per_query"] = value{Value: favourable(cpuPerQuery, "lower"), Unit: "ms", Window: ms(o.shut.cpu-o.open.cpu) / n}
	m["alloc_mb_per_query"] = value{Value: float64(o.shut.alloc-o.open.alloc) / (1 << 20) / n, Unit: "MB"}
	win := o.shut.fc.since(o.open.fc)
	m["msgs_per_query"] = value{Value: float64(win.sent) / n, Unit: "count"}
	m["wire_kb_per_query"] = value{Value: float64(win.wireBytes) / 1024 / n, Unit: "KB"}
	m["recall"] = value{Value: ratio(float64(answers), float64(expected)), Unit: "ratio"}
	m["hops_mean"] = value{Value: ratio(float64(hops), float64(answers)), Unit: "count"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// foldPerLayer turns one traced execution (plus the untraced
// queries_per_s it is compared with) into the (run) layer metrics.
func foldPerLayer(o *observed, b *budget, untracedQPS float64) map[string]value {
	m := make(map[string]value)
	n := float64(len(o.samples))
	if n == 0 {
		n = 1
	}
	win := o.shut.fc.since(o.open.fc) // the measured window
	load := o.quiet1.since(o.quiet0)  // warm-up included; the only span with pool counters
	set := func(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }
	share := func(part, rest uint64) float64 { return ratio(float64(part), float64(part+rest)) }

	set("transport.dropped_per_query", float64(win.dropped)/n, "count")
	set("transport.redials", float64(win.redials), "count")
	set("transport.queue_depth_max", o.queueMax, "count")
	set("storm.pool_hit_rate", share(load.poolHits, load.poolMisses), "ratio")
	set("storm.bytes_per_user_byte", ratio(float64(o.diskBytes), float64(o.userBytes)), "ratio")
	putTimings(m, o)
	set("qroute.base_hit_rate", share(win.baseHits, win.baseMisses), "ratio")
	set("qroute.serve_hit_rate", share(win.serveHits, win.serveMisses), "ratio")
	set("qroute.selective_share", share(win.selective, win.flood+win.explored), "ratio")
	set("core.execs_per_query", float64(win.execs)/n, "count")
	set("core.forwards_per_query", float64(win.forwards)/n, "count")
	set("core.dup_drops_per_query", float64(win.dups)/n, "count")

	var last, late []float64
	byRun := make(map[int][]float64)
	run1Hops, run1Answers := 0, 0
	for _, s := range o.samples {
		last = append(last, ms(s.last))
		if s.open {
			late = append(late, ms(s.late))
		}
		byRun[s.run] = append(byRun[s.run], ms(s.last))
		if s.run == 1 {
			run1Hops += s.hops
			run1Answers += s.answers
		}
	}
	p99, p99n := percentile(last, 0.99)
	m["core.last_p99_ms"] = value{Value: p99, Unit: "ms", Samples: p99n}
	m["core.run1_last_p50_ms"] = value{Value: median(byRun[1]), Unit: "ms", Samples: len(byRun[1])}
	m["core.run4_last_p50_ms"] = value{Value: median(byRun[sessionRuns]), Unit: "ms", Samples: len(byRun[sessionRuns])}
	set("core.hop_us", ratio(median(byRun[1])*1e3, ratio(float64(run1Hops), float64(run1Answers))), "us")
	m["core.span_exec_ms_p50"] = value{Value: median(b.execMS), Unit: "ms", Samples: len(b.execMS)}
	m["core.span_wait_ms_p50"] = value{Value: median(b.waitMS), Unit: "ms", Samples: len(b.waitMS)}
	m["transport.flight_p50_us"] = value{Value: median(b.flightUS), Unit: "us", Samples: len(b.flightUS)}

	for _, row := range b.rows {
		name := "budget." + row.Layer + "_ms_per_query"
		if !row.Summed {
			name = "budget." + row.Layer + "_wait_ms_per_query"
		}
		set(name, row.BusyMS, "ms")
	}
	set("budget.cpu_ms_per_query", b.cpuMS, "ms")
	set("budget.accounted_share", ratio(b.accountedMS, b.cpuMS), "ratio")
	set("budget.serial_model_ms", b.serialModel, "ms")
	set("budget.serial_observed_ms", b.serialSeen, "ms")

	// Lateness of the open-loop generators: the zipf-cache dispatcher
	// and the publish-mix writer.
	for _, p := range o.puts {
		late = append(late, ms(p.late))
	}
	lp95, ln := percentile(late, 0.95)
	m["bench.sched_late_p95_ms"] = value{Value: lp95, Unit: "ms", Samples: ln}
	var done []time.Duration
	for _, s := range o.samples {
		done = append(done, s.ref)
	}
	traced := favourable(perSecondCounts(done, o.window), "higher")
	set("bench.trace_overhead_pct", 100*ratio(untracedQPS-traced, untracedQPS), "%")
	return m
}
