package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/wire"
)

// The traced run installs the benchmark's own recording wrappers around
// the calls into each layer — nothing inside the program is touched:
//
//  1. the recording transport.Network (netcount.go): per-connection
//     bytes and the timestamps of every socket write and read;
//  2. wrapping agent.Factorys handed to the nodes through
//     Config.Registry, timing New and Execute at every peer;
//  3. the hop spans the node already returns from Node.Trace(id), which
//     carry the parent links and the shared query id;
//  4. a replay that times the pure layer calls on the window's actual
//     inputs (the frames that were written, the keywords that were
//     matched), uncontended, so each layer gets a self time that can be
//     set against the process's CPU time per query.
//
// Spans are kept in memory and written out when the benchmark ends.

// agentSpan is one timed call into the agent layer.
type agentSpan struct {
	Op      string `json:"op"` // "new" or "execute"
	Node    int    `json:"node"`
	Keyword string `json:"keyword,omitempty"`
	Hops    int    `json:"hops,omitempty"`
	Results int    `json:"results,omitempty"`
	StartUS int64  `json:"start_us"`
	DurNS   int64  `json:"dur_ns"`

	start time.Time
	taken bool
}

// tracer owns the traced run's in-memory record.
type tracer struct {
	net    *netRecorder
	layers map[string]value // layer-mode costs, used to price counted calls

	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []*agentSpan

	file   *traceFile
	budget *budget
}

func newTracer(layers map[string]value) *tracer {
	return &tracer{net: newNetRecorder(), layers: layers}
}

func (t *tracer) begin() {
	t.mu.Lock()
	t.on = true
	t.t0 = time.Now()
	t.spans = nil
	t.mu.Unlock()
	t.net.begin()
}

func (t *tracer) end() {
	t.net.end()
	t.mu.Lock()
	t.on = false
	t.mu.Unlock()
}

func (t *tracer) record(s *agentSpan) {
	t.mu.Lock()
	if t.on {
		s.StartUS = s.start.Sub(t.t0).Microseconds()
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// registry builds node's agent registry with every built-in class
// behind a timing wrapper.
func (t *tracer) registry(node int) (*agent.Registry, error) {
	reg := agent.NewRegistry()
	for _, f := range []agent.Factory{
		agent.NewKeywordFactory(), agent.NewFilterFactory(), agent.NewDigestFactory(), agent.NewTopKFactory(),
	} {
		if err := reg.Register(&tracedFactory{Factory: f, tr: t, node: node}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

type tracedFactory struct {
	agent.Factory
	tr   *tracer
	node int
}

func (f *tracedFactory) New(state []byte) (agent.Agent, error) {
	start := time.Now()
	ag, err := f.Factory.New(state)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	f.tr.record(&agentSpan{Op: "new", Node: f.node, Keyword: keywordOf(ag), DurNS: dur.Nanoseconds(), start: start})
	return f.tr.wrapAgent(ag, f.node), nil
}

// tracedAgent times Execute. It forwards the fingerprint methods so the
// answer cache and routing index treat a wrapped agent like a bare one.
type tracedAgent struct {
	agent.Agent
	tr   *tracer
	node int
}

func (a *tracedAgent) Execute(ctx *agent.Context) ([]agent.Result, error) {
	start := time.Now()
	results, err := a.Agent.Execute(ctx)
	a.tr.record(&agentSpan{
		Op: "execute", Node: a.node, Keyword: keywordOf(a.Agent), Hops: ctx.Hops,
		Results: len(results), DurNS: time.Since(start).Nanoseconds(), start: start,
	})
	return results, err
}

func (a *tracedAgent) QueryKey() string {
	if fp, ok := a.Agent.(agent.Fingerprinter); ok {
		return fp.QueryKey()
	}
	return ""
}

func (a *tracedAgent) QueryTerms() []string {
	if fp, ok := a.Agent.(agent.Fingerprinter); ok {
		return fp.QueryTerms()
	}
	return nil
}

// wrapAgent wraps an agent the harness itself hands to Query, so the
// base's local execution is timed like any peer's.
func (t *tracer) wrapAgent(ag agent.Agent, node int) agent.Agent {
	return &tracedAgent{Agent: ag, tr: t, node: node}
}

func keywordOf(ag agent.Agent) string {
	if ka, ok := ag.(*agent.KeywordAgent); ok {
		return ka.Query
	}
	return ""
}

// tracedQuery is one query of the trace file: the node's own hop spans
// with the benchmark's agent spans attached under the hop they ran in.
type tracedQuery struct {
	ID      string      `json:"id"`
	Keyword string      `json:"keyword"`
	Run     int         `json:"run,omitempty"`
	StartUS int64       `json:"start_us"`
	EndUS   int64       `json:"end_us"`
	Hops    []tracedHop `json:"hops"`
}

type tracedHop struct {
	wire.TraceSpan
	Node  int          `json:"node"`
	Agent []*agentSpan `json:"agent,omitempty"`
}

type traceFile struct {
	Workload      string        `json:"workload"`
	Seed          int64         `json:"seed"`
	WindowSeconds float64       `json:"window_seconds"`
	Queries       []tracedQuery `json:"queries"`
	Orphans       []*agentSpan  `json:"orphan_agent_spans,omitempty"`
	Conns         []connTotals  `json:"connections"`
	NetEvents     []netEvent    `json:"net_events"`
	NetDropped    uint64        `json:"net_events_dropped,omitempty"`
	Budget        []budgetRow   `json:"budget"`
}

// budgetRow is one layer's line of the per-query budget.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Calls  float64 `json:"calls_per_query"`
	BusyMS float64 `json:"busy_ms_per_query"`
	Share  float64 `json:"share_of_cpu"`
	How    string  `json:"how"`
	Summed bool    `json:"summed"` // counts towards the accounted share
}

type budget struct {
	rows        []budgetRow
	queries     int
	cpuMS       float64 // the traced window's own CPU ms per query
	accountedMS float64
	hops        int       // hop spans harvested
	execMS      []float64 // per executed hop
	waitMS      []float64
	serialModel float64 // ms; 0 unless the workload runs sessions
	serialSeen  float64
	flightUS    []float64 // per frame: socket write start → last byte read by the peer
}

// harvest runs after the window, while the fleet is still up: it
// collects the hop spans of every recorded query, attaches the agent
// spans, replays the layer calls and folds everything into the budget.
func (t *tracer) harvest(r *run, out *observed) {
	t.mu.Lock()
	spans := t.spans
	t0 := t.t0
	t.mu.Unlock()

	// Agent spans per (node, op, keyword) in time order, so each hop can
	// claim the call it caused.
	type slot struct {
		node int
		op   string
		kw   string
	}
	type queue struct {
		spans []*agentSpan
		head  int // everything before it is taken
	}
	queues := make(map[slot]*queue)
	for _, s := range spans {
		k := slot{s.Node, s.Op, s.Keyword}
		if queues[k] == nil {
			queues[k] = &queue{}
		}
		queues[k].spans = append(queues[k].spans, s)
	}
	claim := func(node int, op, kw string, notBefore time.Time) *agentSpan {
		q := queues[slot{node, op, kw}]
		if q == nil {
			return nil
		}
		for q.head < len(q.spans) && q.spans[q.head].taken {
			q.head++
		}
		for _, s := range q.spans[q.head:] {
			if !s.taken && !s.start.Before(notBefore) {
				s.taken = true
				return s
			}
		}
		return nil
	}

	b := &budget{queries: len(out.samples)}
	file := &traceFile{Workload: r.w.name, Seed: r.seed, WindowSeconds: out.window.Seconds()}
	records := append([]queryRecord(nil), out.records...)
	sort.Slice(records, func(i, j int) bool { return records[i].start.Before(records[j].start) })
	execsAt := make(map[int]map[string]int) // node → keyword → executions
	answering := 0
	for _, rec := range records {
		q := tracedQuery{
			ID: rec.id.String(), Keyword: rec.keyword, Run: rec.run,
			StartUS: rec.start.Sub(t0).Microseconds(), EndUS: rec.end.Sub(t0).Microseconds(),
		}
		trace, ok := r.f.base().Trace(rec.id)
		if !ok {
			file.Queries = append(file.Queries, q)
			continue
		}
		for _, span := range trace.Spans {
			hop := tracedHop{TraceSpan: span, Node: r.f.addrIdx[span.Peer]}
			b.hops++
			if span.Drop == "" {
				if s := claim(hop.Node, "new", rec.keyword, rec.start); s != nil {
					hop.Agent = append(hop.Agent, s)
				}
				if s := claim(hop.Node, "execute", rec.keyword, rec.start); s != nil {
					hop.Agent = append(hop.Agent, s)
					if execsAt[hop.Node] == nil {
						execsAt[hop.Node] = make(map[string]int)
					}
					execsAt[hop.Node][rec.keyword]++
				}
				if span.Hop > 0 {
					b.execMS = append(b.execMS, float64(span.ExecNS)/1e6)
					b.waitMS = append(b.waitMS, float64(span.WaitNS)/1e6)
				}
				if span.Matches > 0 && span.Hop > 0 {
					answering++
				}
			}
			q.Hops = append(q.Hops, hop)
		}
		file.Queries = append(file.Queries, q)
	}
	news, execs := 0, 0
	for _, s := range spans {
		if !s.taken {
			file.Orphans = append(file.Orphans, s)
		}
		if s.Op == "new" {
			news++
		} else {
			execs++
		}
	}

	net := t.net.summary()
	file.Conns, file.NetEvents, file.NetDropped = net.conns, net.events, net.dropped
	for _, f := range net.flight {
		b.flightUS = append(b.flightUS, float64(f)/float64(time.Microsecond))
	}

	n := float64(b.queries)
	if n == 0 {
		n = 1
	}
	b.cpuMS = ms(out.shut.cpu-out.open.cpu) / n
	win := out.shut.fc.since(out.open.fc)
	layerNS := func(name string) float64 {
		v := t.layers[name]
		switch v.Unit {
		case "us":
			return v.Value * 1e3
		case "ms":
			return v.Value * 1e6
		}
		return v.Value
	}
	add := func(layer string, calls, busyNS float64, how string, summed bool) {
		row := budgetRow{Layer: layer, Calls: calls / n, BusyMS: busyNS / 1e6 / n, How: how, Summed: summed}
		if b.cpuMS > 0 {
			row.Share = row.BusyMS / b.cpuMS
		}
		if summed {
			b.accountedMS += row.BusyMS
		}
		b.rows = append(b.rows, row)
	}

	// wire: decode then re-encode the frames that were really written.
	frames, wireNS := 0.0, 0.0
	for bucket, hist := range net.frameHist {
		samples := net.frames[bucket]
		if len(samples) == 0 {
			continue
		}
		per := 0.0
		for _, frame := range samples {
			per += replayFrame(frame)
		}
		frames += float64(hist.n)
		wireNS += float64(hist.n) * per / float64(len(samples))
	}
	add("wire", 2*frames, wireNS, "replay: DecodeEnvelope+EncodeEnvelope on the frames written", true)
	add("transport", frames, float64(net.writeBusy.Nanoseconds()), "in situ: time inside socket writes", true)

	// agent and storm: re-run Execute and Match where they ran.
	replay := t.replayExecs(r, execsAt)
	add("agent", float64(news+execs)+2*float64(execs+answering),
		float64(news)*layerNS("agent.reconstruct_us")+replay.selfNS+replay.resultsNS+
			float64(execs)*layerNS("agent.packet_roundtrip_us"),
		"replay: Registry.New, Execute minus Match, packet and result codecs", true)
	add("storm", float64(execs), replay.matchNS, "replay: Store.Match on the stores and keywords executed", true)

	lookups := float64(win.baseHits + win.baseMisses + win.serveHits + win.serveMisses)
	puts := float64(win.cachePuts)
	selects := float64(win.selective + win.flood + win.explored)
	observes := 0.0
	if r.f.spec.cache {
		observes = float64(answering)
	}
	add("qroute", lookups+puts+selects+observes,
		lookups*layerNS("qroute.get_hit_ns")+puts*layerNS("qroute.put_ns")+
			selects*layerNS("qroute.select_ns")+observes*layerNS("qroute.observe_ns"),
		"counted calls × layer-mode cost", true)

	uncached := 0
	for _, s := range out.samples {
		if !s.cached {
			uncached++
		}
	}
	cands := maxPeers
	if uncached > 0 {
		cands += answering / uncached
	}
	add("reconfig", 2*float64(uncached), float64(uncached)*replayReconfig(r.f.spec.strategy, cands),
		fmt.Sprintf("replay: Select+Explain over %d candidates", cands), true)

	events := float64(win.journal)
	observations := float64(execs + answering)
	add("obs", events+float64(b.hops)+observations,
		events*layerNS("obs.journal_append_ns")+float64(b.hops)*layerNS("obs.tracer_record_ns")+
			observations*layerNS("obs.histogram_observe_ns"),
		"counted calls × layer-mode cost", true)

	waitNS := 0.0
	for _, w := range b.waitMS {
		waitNS += w * 1e6
	}
	add("core", float64(b.hops), waitNS, "in situ wall time from arrival to execution (includes queueing for a CPU); not summed", false)

	// The serial model: on a line every hop of run 1 is in sequence.
	var run1 []float64
	maxHop := 0
	for _, s := range out.samples {
		if s.run == 1 {
			run1 = append(run1, ms(s.last))
		}
	}
	for _, q := range file.Queries {
		if q.Run == 1 {
			for _, h := range q.Hops {
				if h.Matches > 0 && h.Hop > maxHop {
					maxHop = h.Hop
				}
			}
		}
	}
	if len(run1) > 0 && maxHop > 0 {
		oneway := layerNS("transport.oneway_us")
		b.serialModel = (float64(maxHop)*(oneway+layerNS("agent.packet_roundtrip_us")) +
			layerNS("agent.reconstruct_us") + replay.lastExecNS + oneway) / 1e6
		b.serialSeen = median(run1)
	}

	file.Budget = b.rows
	t.file, t.budget = file, b
}

// replayFrame times one decode and re-encode of a frame as it crossed
// the socket; the median of a few repeats, in ns.
func replayFrame(frame []byte) float64 {
	const reps = 3
	per := make([]float64, reps)
	for i := range per {
		begin := time.Now()
		env, err := wire.DecodeEnvelope(frame)
		if err == nil {
			sink, _ = wire.EncodeEnvelope(env)
		}
		per[i] = float64(time.Since(begin).Nanoseconds())
	}
	return median(per)
}

type execReplay struct {
	matchNS    float64 // Σ over executions of Store.Match alone
	selfNS     float64 // Σ Execute − Match
	resultsNS  float64 // Σ EncodeResults+DecodeResults on what Execute returned
	lastExecNS float64 // one Execute at the highest-numbered node that executed
}

// replayExecs re-runs, with nothing else going on, the agent executions
// the window saw: per node the mean cost over a few of the keywords it
// executed, multiplied by how often it executed.
func (t *tracer) replayExecs(r *run, execsAt map[int]map[string]int) execReplay {
	const keywordsPerNode, reps = 3, 3
	var out execReplay
	last := -1
	for node, byKeyword := range execsAt {
		keywords := make([]string, 0, len(byKeyword))
		total := 0
		for kw, n := range byKeyword {
			keywords = append(keywords, kw)
			total += n
		}
		sort.Strings(keywords)
		if len(keywords) > keywordsPerNode {
			keywords = keywords[:keywordsPerNode]
		}
		st := r.f.stores[node]
		ctx := &agent.Context{Store: st, NodeAddr: r.f.nodes[node].Addr(), Hops: 1}
		var match, exec, codec []float64
		for _, kw := range keywords {
			ag := newKeywordAgent(kw)
			for i := 0; i < reps; i++ {
				begin := time.Now()
				sink, _ = st.Match(kw)
				match = append(match, float64(time.Since(begin).Nanoseconds()))
				begin = time.Now()
				results, _ := ag.Execute(ctx)
				exec = append(exec, float64(time.Since(begin).Nanoseconds()))
				begin = time.Now()
				sink, _ = agent.DecodeResults(agent.EncodeResults(results, 1, wire.BPID{}, ctx.NodeAddr))
				codec = append(codec, float64(time.Since(begin).Nanoseconds()))
			}
		}
		m, e := median(match), median(exec)
		out.matchNS += float64(total) * m
		if e > m {
			out.selfNS += float64(total) * (e - m)
		}
		out.resultsNS += float64(total) * median(codec)
		if node > last {
			last, out.lastExecNS = node, e
		}
	}
	return out
}

// replayReconfig times the post-query decision for a candidate list of
// the size the window produced; ns per query.
func replayReconfig(strategy reconfig.Strategy, cands int) float64 {
	obs := make([]reconfig.Observation, cands)
	for i := range obs {
		obs[i] = reconfig.Observation{Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), Answers: (i * 7) % 11, Hops: 1 + i%6, Direct: i < maxPeers}
	}
	return timeOp(10*time.Millisecond, func() {
		sink = strategy.Select(obs, maxPeers)
		sink = reconfig.Explain(strategy, obs, maxPeers)
	}).ns
}

// write puts the trace file under dir.
func (t *tracer) write(dir string) (string, error) {
	if t.file == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.file.Workload+".json")
	data, err := json.Marshal(t.file)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
