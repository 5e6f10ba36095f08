package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/bench"
	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

// The layer mode times each package's exported functions from outside,
// on the inputs the workloads produce: the agent frame is the KindAgent
// envelope the base sends in flood-scan (keyword packet + trace
// context); the result frame is a KindResult envelope carrying ten 1 KB
// results of random data plus the hop span.

// opCost is the cost of one call.
type opCost struct {
	ns     float64
	bytes  float64
	allocs float64
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink any

// timeOp calls fn in batches for about budget and returns the median
// per-call time over the batches, with allocation per call.
func timeOp(budget time.Duration, fn func()) opCost {
	fn() // warm: first-call set-up is not what a hop pays
	n := 1
	for {
		begin := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(begin); d >= budget/10 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	const batches = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, batches)
	for b := range per {
		begin := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(begin).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&after)
	ops := float64(batches * n)
	return opCost{
		ns:     median(per),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / ops,
		allocs: float64(after.Mallocs-before.Mallocs) / ops,
	}
}

// timeEach times n calls one by one and returns the median in ns; for
// operations that consume their input (a Put needs a fresh name).
func timeEach(n int, fn func(i int) error) (float64, error) {
	per := make([]float64, n)
	for i := range per {
		begin := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(begin).Nanoseconds())
	}
	return median(per), nil
}

const fixtureAddr = "127.0.0.1:54321"

func agentFrame(keyword string) *wire.Envelope {
	state, _ := newKeywordAgent(keyword).State() // KeywordAgent.State cannot fail
	id := wire.NewMsgID()
	return &wire.Envelope{
		Kind: wire.KindAgent, ID: id, TTL: defaultTTL, Hops: 1,
		From: fixtureAddr, To: "127.0.0.1:54322",
		Body: agent.EncodePacket(&agent.Packet{
			Class: agent.KeywordClass, State: state, Base: fixtureAddr, Mode: 1,
		}),
		Trace: &wire.TraceContext{QueryID: id, Base: fixtureAddr},
	}
}

func tenResults(rng *rand.Rand) []agent.Result {
	results := make([]agent.Result, 10)
	for i := range results {
		data := make([]byte, 1024)
		rng.Read(data)
		results[i] = agent.Result{Name: fmt.Sprintf("n3-object-%04d", i), Data: data}
	}
	return results
}

func resultFrame(rng *rand.Rand) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindResult, ID: wire.NewMsgID(), TTL: 1,
		From: "127.0.0.1:54322", To: fixtureAddr,
		Body: agent.EncodeResults(tenResults(rng), 2, wire.BPID{}, "127.0.0.1:54322"),
		Span: &wire.TraceSpan{Peer: "127.0.0.1:54322", Parent: fixtureAddr, Hop: 2, WaitNS: 120_000, ExecNS: 1_100_000, Matches: 10, FanOut: 3},
	}
}

// layerRun carries the layer mode's fixtures and collects its metrics.
type layerRun struct {
	budget  time.Duration // per timed function
	objects int           // store size for the storm fixtures
	eachN   int           // calls for timeEach-style measurements
	root    string
	seed    int64
	out     map[string]value
}

func (l *layerRun) set(name string, v float64, unit string) {
	l.out[name] = value{Value: v, Unit: unit}
}

// runLayers measures every layer metric that does not need a fleet.
func runLayers(budget time.Duration, objects int, seed int64, root string) (map[string]value, error) {
	dir, err := os.MkdirTemp(root, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &layerRun{budget: budget, objects: objects, eachN: 300, root: dir, seed: seed, out: make(map[string]value)}
	if objects < 1000 {
		l.eachN = 40
	}
	for _, step := range []func() error{l.wire, l.transport, l.agentAndStorm, l.stormWrites, l.qroute, l.core, l.reconfigAndObs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

func (l *layerRun) wire() error {
	rng := rand.New(rand.NewSource(l.seed))
	for _, fx := range []struct {
		name string
		env  *wire.Envelope
	}{{"agent", agentFrame("kw7")}, {"result", resultFrame(rng)}} {
		frame, err := wire.EncodeEnvelope(fx.env)
		if err != nil {
			return err
		}
		enc := timeOp(l.budget, func() { sink, _ = wire.EncodeEnvelope(fx.env) })
		dec := timeOp(l.budget, func() { sink, _ = wire.DecodeEnvelope(frame) })
		l.set("wire.encode_"+fx.name+"_us", enc.ns/1e3, "us")
		l.set("wire.decode_"+fx.name+"_us", dec.ns/1e3, "us")
		l.set("wire.encode_"+fx.name+"_alloc_kb", enc.bytes/1024, "KB")
		if fx.name == "result" {
			l.set("wire.result_frame_ratio", float64(len(frame))/float64(len(fx.env.Body)), "ratio")
		}
	}
	return nil
}

// transport times a pair of messengers over loopback TCP: one idle
// one-way delivery, then one sender streaming to one destination.
func (l *layerRun) transport() error {
	var received atomic.Uint64
	got := make(chan struct{}, 1)
	const streamWindow = 64 // half the default 128-deep send queue, so Send never sees it full
	credits := make(chan struct{}, streamWindow)
	var streaming atomic.Bool
	recv, err := transport.NewMessenger(transport.TCP{}, "", func(*wire.Envelope) {
		received.Add(1)
		if streaming.Load() {
			select {
			case credits <- struct{}{}:
			default:
			}
			return
		}
		select {
		case got <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return err
	}
	defer recv.Close()
	send, err := transport.NewMessenger(transport.TCP{}, "", nil)
	if err != nil {
		return err
	}
	defer send.Close()

	env := agentFrame("kw7")
	oneway := func() error {
		if err := send.Send(recv.Addr(), env); err != nil {
			return err
		}
		select {
		case <-got:
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("transport: frame not delivered within 2s")
		}
	}
	if err := oneway(); err != nil { // dials
		return err
	}
	ns, err := timeEach(l.eachN, func(int) error { return oneway() })
	if err != nil {
		return err
	}
	l.set("transport.oneway_us", ns/1e3, "us")

	streaming.Store(true)
	stream := func(env *wire.Envelope) (msgs float64, elapsed time.Duration, err error) {
		for len(credits) < streamWindow {
			credits <- struct{}{}
		}
		start, begin := received.Load(), time.Now()
		sent := uint64(0)
		for time.Since(begin) < l.budget*3 {
			select {
			case <-credits:
			case <-time.After(2 * time.Second):
				return 0, 0, fmt.Errorf("transport: stream stalled after %d frames", sent)
			}
			if err := send.Send(recv.Addr(), env); err != nil {
				return 0, 0, err
			}
			sent++
		}
		drain := time.NewTimer(2 * time.Second)
		defer drain.Stop()
		for received.Load()-start < sent {
			select {
			case <-credits:
			case <-drain.C:
				return 0, 0, fmt.Errorf("transport: %d of %d streamed frames delivered", received.Load()-start, sent)
			}
		}
		return float64(sent), time.Since(begin), nil
	}
	msgs, elapsed, err := stream(env)
	if err != nil {
		return err
	}
	l.set("transport.stream_msgs_per_s", msgs/elapsed.Seconds(), "1/s")
	big := resultFrame(rand.New(rand.NewSource(l.seed)))
	msgs, elapsed, err = stream(big)
	if err != nil {
		return err
	}
	l.set("transport.stream_mb_per_s", msgs*float64(len(big.Body))/1e6/elapsed.Seconds(), "MB/s")
	return nil
}

// scanStore opens and fills a store the size of one flood-scan peer.
func (l *layerRun) scanStore(name string, opts storm.Options) (*storm.Store, error) {
	st, err := storm.Open(filepath.Join(l.root, name), opts)
	if err != nil {
		return nil, err
	}
	spec := workload.Default(l.seed)
	spec.ObjectsPerNode = l.objects
	if err := spec.Populate(3, st); err != nil {
		_ = st.Close() // already failing; the populate error wins
		return nil, err
	}
	return st, nil
}

func (l *layerRun) agentAndStorm() error {
	cold, err := l.scanStore("cold.storm", storm.Options{BufferFrames: bufferFrames, Policy: bufferPolicy})
	if err != nil {
		return err
	}
	defer cold.Close()
	warm, err := l.scanStore("warm.storm", storm.Options{BufferFrames: 512, Policy: bufferPolicy})
	if err != nil {
		return err
	}
	defer warm.Close()

	const keyword = "kw7"
	match := timeOp(l.budget, func() { sink, _ = cold.Match(keyword) })
	l.set("storm.match_cold_ms", match.ns/1e6, "ms")
	l.set("storm.match_alloc_mb", match.bytes/(1<<20), "MB")
	l.set("storm.match_allocs", match.allocs, "count")
	l.set("storm.match_warm_ms", timeOp(l.budget, func() { sink, _ = warm.Match(keyword) }).ns/1e6, "ms")

	ag := newKeywordAgent(keyword)
	ctx := &agent.Context{Store: cold, NodeAddr: fixtureAddr, Hops: 1}
	exec := timeOp(l.budget, func() { sink, _ = ag.Execute(ctx) })
	self := exec.ns - match.ns
	if self < 0 {
		self = 0
	}
	l.set("agent.exec_self_us", self/1e3, "us")

	packet, err := agent.DecodePacket(agentFrame(keyword).Body)
	if err != nil {
		return err
	}
	l.set("agent.packet_roundtrip_us", timeOp(l.budget, func() {
		sink, _ = agent.DecodePacket(agent.EncodePacket(packet))
	}).ns/1e3, "us")
	reg := agent.NewRegistry()
	if err := agent.RegisterBuiltins(reg); err != nil {
		return err
	}
	l.set("agent.reconstruct_us", timeOp(l.budget, func() {
		sink, _ = reg.New(packet.Class, packet.State)
	}).ns/1e3, "us")
	results := tenResults(rand.New(rand.NewSource(l.seed)))
	l.set("agent.results_roundtrip_us", timeOp(l.budget, func() {
		sink, _ = agent.DecodeResults(agent.EncodeResults(results, 2, wire.BPID{}, fixtureAddr))
	}).ns/1e3, "us")
	return nil
}

func (l *layerRun) stormWrites() error {
	plain, err := l.scanStore("plain.storm", storm.Options{BufferFrames: bufferFrames, Policy: bufferPolicy})
	if err != nil {
		return err
	}
	defer plain.Close()
	durable, err := l.scanStore("durable.storm", storm.Options{
		BufferFrames: bufferFrames, Policy: bufferPolicy,
		PersistentCatalog: true, PersistentIndex: true, WALPath: filepath.Join(l.root, "durable.wal"),
	})
	if err != nil {
		return err
	}
	defer durable.Close()

	l.set("storm.lookup_index_us", timeOp(l.budget, func() { sink, _ = durable.LookupKeyword("kw7") }).ns/1e3, "us")

	rng := rand.New(rand.NewSource(l.seed))
	fresh := func(i int) *storm.Object {
		data := make([]byte, 1024)
		rng.Read(data)
		return &storm.Object{Name: fmt.Sprintf("w-%d", i), Keywords: []string{fmt.Sprintf("pub%d", i%pubKeywords)}, Data: data}
	}
	objs := make([]*storm.Object, l.eachN)
	for i := range objs {
		objs[i] = fresh(i)
	}
	put := func(st *storm.Store) (float64, error) {
		return timeEach(len(objs), func(i int) error { _, err := st.Put(objs[i]); return err })
	}
	ns, err := put(plain)
	if err != nil {
		return err
	}
	l.set("storm.put_plain_us", ns/1e3, "us")
	if ns, err = put(durable); err != nil {
		return err
	}
	l.set("storm.put_durable_us", ns/1e3, "us")
	if ns, err = timeEach(len(objs), func(i int) error { return durable.Delete(objs[i].Name) }); err != nil {
		return err
	}
	l.set("storm.delete_durable_us", ns/1e3, "us")
	return nil
}

func (l *layerRun) qroute() error {
	eng := qroute.NewEngine(qroute.Options{Enable: true}, nil)
	now := time.Now()
	val := tenResults(rand.New(rand.NewSource(l.seed)))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = qroute.Key(agent.KeywordClass, 1, 0, fmt.Sprintf("kw%d", i))
	}
	eng.PutBase(keys[0], val, 10<<10, false, eng.Epoch(), now)
	l.set("qroute.get_hit_ns", timeOp(l.budget, func() { sink, _, _ = eng.GetBase(keys[0], now) }).ns, "ns")
	i := 0
	l.set("qroute.put_ns", timeOp(l.budget, func() {
		eng.PutBase(keys[i%len(keys)], val, 10<<10, false, eng.Epoch(), now)
		i++
	}).ns, "ns")
	neighbors := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4", "127.0.0.1:5"}
	terms := []string{"kw7"}
	for h, nb := range neighbors {
		eng.Observe(terms, nb, 10, h+1, now)
	}
	l.set("qroute.select_ns", timeOp(l.budget, func() { sink = eng.Select(terms, neighbors, defaultTTL, now) }).ns, "ns")
	l.set("qroute.observe_ns", timeOp(l.budget, func() { eng.Observe(terms, neighbors[1], 10, 2, now) }).ns, "ns")
	return nil
}

// core times the fixed cost of a query: one node, no peers, a 50-object
// store, local answers only.
func (l *layerRun) core() error {
	spec := &workload.Spec{
		ObjectsPerNode: 50, ObjectSize: 256, Vocabulary: 100, Seed: l.seed,
		PlantedKeyword: plantedKeyword, Holders: []int{0}, PlantedHits: 5,
	}
	st, err := storm.Open(filepath.Join(l.root, "local.storm"), storm.Options{BufferFrames: bufferFrames, Policy: bufferPolicy})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := spec.Populate(0, st); err != nil {
		return err
	}
	node, err := core.NewNode(core.Config{Network: transport.TCP{}, Store: st, MaxPeers: maxPeers, DefaultTTL: defaultTTL})
	if err != nil {
		return err
	}
	defer node.Close()
	var qerr error
	cost := timeOp(l.budget, func() {
		res, err := node.Query(newKeywordAgent(plantedKeyword), core.QueryOptions{Timeout: time.Second, WaitAnswers: spec.PlantedHits})
		if err != nil {
			qerr = err
		} else if len(res.Answers) != spec.PlantedHits {
			qerr = fmt.Errorf("core: local query returned %d answers, want %d", len(res.Answers), spec.PlantedHits)
		}
	})
	l.set("core.query_local_us", cost.ns/1e3, "us")
	return qerr
}

func (l *layerRun) reconfigAndObs() error {
	cands := make([]reconfig.Observation, 32)
	for i := range cands {
		cands[i] = reconfig.Observation{
			Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), Answers: (i * 7) % 11, Bytes: 1024 * ((i * 7) % 11),
			Hops: 1 + i%6, Direct: i < maxPeers,
		}
	}
	l.set("reconfig.select_maxcount_us", timeOp(l.budget, func() { sink = reconfig.MaxCount{}.Select(cands, maxPeers) }).ns/1e3, "us")
	l.set("reconfig.select_minhops_us", timeOp(l.budget, func() { sink = reconfig.MinHops{}.Select(cands, maxPeers) }).ns/1e3, "us")
	l.set("reconfig.explain_us", timeOp(l.budget, func() { sink = reconfig.Explain(reconfig.MaxCount{}, cands, maxPeers) }).ns/1e3, "us")

	journal := obs.NewJournal(fixtureAddr, 0)
	l.set("obs.journal_append_ns", timeOp(l.budget, func() {
		journal.Append(obs.Event{Kind: obs.EvAgentForwarded, Query: "q", Peer: fixtureAddr, Hops: 3, Count: 2})
	}).ns, "ns")
	hist := obs.NewRegistry().Histogram("bench_seconds", "layer-mode fixture", obs.LatencyBuckets)
	l.set("obs.histogram_observe_ns", timeOp(l.budget, func() { hist.Observe(0.0012) }).ns, "ns")
	tracer := obs.NewTracer(0)
	span := wire.TraceSpan{Peer: fixtureAddr, Parent: "127.0.0.1:54322", Hop: 2, WaitNS: 1, ExecNS: 2, Matches: 10}
	var id wire.MsgID
	n := 0
	l.set("obs.tracer_record_ns", timeOp(l.budget, func() {
		if n%1024 == 0 { // stay under the per-trace span cap
			id = wire.NewMsgID()
			tracer.Begin(id, fixtureAddr)
		}
		tracer.Record(id, span)
		n++
	}).ns, "ns")
	return nil
}

// simRatios sets the simulator's asserted CostModel constants beside
// what was measured; recalibrating the simulator is a later change.
func simRatios(m map[string]value, objects int) {
	cost := bench.DefaultCost()
	ratio := func(name string, measured, asserted time.Duration) {
		m[name] = value{Value: float64(measured) / float64(asserted), Unit: "ratio"}
	}
	us := func(name string) time.Duration { return time.Duration(m[name].Value * float64(time.Microsecond)) }
	ratio("sim.agent_startup_ratio", us("agent.reconstruct_us"), cost.AgentStartup)
	// match_cold_ms is one scan of the whole store.
	perObject := time.Duration(m["storm.match_cold_ms"].Value / float64(objects) * float64(time.Millisecond))
	ratio("sim.match_per_object_ratio", perObject, cost.MatchPerObject)
	ratio("sim.forward_cost_ratio", us("core.hop_us"), cost.ForwardCost)
}
