package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
	"bestpeer/internal/workload"
)

// Node configuration is the daemon's defaults (cmd/bestpeer: -peers 5
// -ttl 7 -frames 64 -policy lru), so the fleet measures what ships.
const (
	maxPeers     = 5
	defaultTTL   = 7
	bufferFrames = 64
	bufferPolicy = "lru"
	// cacheTTL is zipf-cache's answer-cache freshness bound (`bestpeer
	// -cache -cache-ttl 2s`). The default 30 s outlasts the run: popular
	// keywords would be fetched once and the whole window would replay
	// whatever those few fetches happened to return (measured recall
	// 0.68–0.93 over ten seeds). At 2 s entries expire and are fetched
	// again all through the window — the cache's steady state, and a
	// steadier one (recall 0.77–0.82).
	cacheTTL = 2 * time.Second
)

// fleetSpec says what to stand up; everything a workload varies is here.
type fleetSpec struct {
	topo     *topology.Topology
	data     *workload.Spec
	strategy reconfig.Strategy
	cache    bool // qroute on, as `bestpeer -cache`
	durable  bool // stores opened as `bestpeer -wal -catalog -index`
}

// fleet is a live network of core.Nodes over loopback TCP with real
// storm stores on disk.
type fleet struct {
	spec    fleetSpec
	dir     string
	nodes   []*core.Node
	stores  []*storm.Store
	net     *countingNet
	addrIdx map[string]int
}

// buildFleet opens and populates one store per node, starts the nodes,
// wires the topology and round-trips a probe over every edge so the
// first measured query does not pay for dials. tr is nil outside the
// traced run.
func buildFleet(spec fleetSpec, root string, tr *tracer) (*fleet, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{spec: spec, dir: dir, addrIdx: make(map[string]int)}
	var rec *netRecorder
	if tr != nil {
		rec = tr.net
	}
	f.net = newCountingNet(transport.TCP{}, rec)
	fail := func(err error) (*fleet, error) {
		_ = f.close() // already failing; the build error is what matters
		return nil, err
	}
	for i := 0; i < spec.topo.N; i++ {
		st, err := f.openStore(i)
		if err != nil {
			return fail(err)
		}
		f.stores = append(f.stores, st)
		cfg := core.Config{
			Network:    f.net,
			Store:      st,
			MaxPeers:   maxPeers,
			DefaultTTL: defaultTTL,
			Strategy:   spec.strategy,
			QRoute:     qroute.Options{Enable: spec.cache, Cache: qroute.CacheOptions{TTL: cacheTTL}},
		}
		if tr != nil {
			if cfg.Registry, err = tr.registry(i); err != nil {
				return fail(err)
			}
			if i == spec.topo.Base {
				// Keep every traced query's hop spans until the window
				// ends; the default ring holds 128.
				cfg.TraceCapacity = 1 << 16
			}
		}
		node, err := core.NewNode(cfg)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, node)
		f.addrIdx[node.Addr()] = i
	}
	for i, node := range f.nodes {
		node.SetPeers(f.peersOf(i))
	}
	for i, node := range f.nodes {
		for _, j := range spec.topo.Peers(i) {
			if !node.Probe(f.nodes[j].Addr(), 2*time.Second) {
				return fail(fmt.Errorf("node %d: peer %d did not answer its first probe", i, j))
			}
		}
	}
	return f, nil
}

// openStore opens and populates store i as the workload configures its
// stores. On failure the store is closed again.
func (f *fleet) openStore(i int) (*storm.Store, error) {
	opts := storm.Options{BufferFrames: bufferFrames, Policy: bufferPolicy}
	if f.spec.durable {
		opts.PersistentCatalog = true
		opts.PersistentIndex = true
		opts.WALPath = f.walPath(i)
	}
	st, err := storm.Open(f.storePath(i), opts)
	if err != nil {
		return nil, err
	}
	if err := f.spec.data.Populate(i, st); err != nil {
		_ = st.Close() // already failing; the populate error wins
		return nil, err
	}
	return st, nil
}

func (f *fleet) storePath(i int) string { return filepath.Join(f.dir, fmt.Sprintf("n%d.storm", i)) }
func (f *fleet) walPath(i int) string   { return filepath.Join(f.dir, fmt.Sprintf("n%d.wal", i)) }

// peersOf is node i's initial direct-peer set from the topology.
func (f *fleet) peersOf(i int) []core.Peer {
	var peers []core.Peer
	for _, j := range f.spec.topo.Peers(i) {
		peers = append(peers, core.Peer{Addr: f.nodes[j].Addr()})
	}
	return peers
}

func (f *fleet) base() *core.Node { return f.nodes[f.spec.topo.Base] }

// close shuts every node and store and removes the on-disk state.
func (f *fleet) close() error {
	var errs []error
	for _, n := range f.nodes {
		errs = append(errs, n.Close())
	}
	for _, s := range f.stores {
		errs = append(errs, s.Close())
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// fleetCounters is a point-in-time sum of the public per-node snapshots.
type fleetCounters struct {
	sent, dropped, redials     uint64
	execs, forwards, dups      uint64
	wireBytes                  uint64
	poolHits, poolMisses       uint64
	baseHits, baseMisses       uint64 // answer-cache lookups at the base
	serveHits, serveMisses     uint64 // answer-cache lookups at the peers
	selective, flood, explored uint64
	cachePuts                  uint64
	journal                    uint64
}

// since is what happened between an earlier snapshot and this one.
func (c fleetCounters) since(from fleetCounters) fleetCounters {
	return fleetCounters{
		sent: c.sent - from.sent, dropped: c.dropped - from.dropped, redials: c.redials - from.redials,
		execs: c.execs - from.execs, forwards: c.forwards - from.forwards, dups: c.dups - from.dups,
		wireBytes: c.wireBytes - from.wireBytes,
		poolHits:  c.poolHits - from.poolHits, poolMisses: c.poolMisses - from.poolMisses,
		baseHits: c.baseHits - from.baseHits, baseMisses: c.baseMisses - from.baseMisses,
		serveHits: c.serveHits - from.serveHits, serveMisses: c.serveMisses - from.serveMisses,
		selective: c.selective - from.selective, flood: c.flood - from.flood, explored: c.explored - from.explored,
		cachePuts: c.cachePuts - from.cachePuts,
		journal:   c.journal - from.journal,
	}
}

// counters sums MessengerStats, Node.Stats, Node.CacheStats and the
// journal totals over the fleet. Only the base issues queries, so its
// cache lookups are base-site lookups and every other node's are
// serve-site ones. Store.Stats reads the pool's counters without the
// pool's lock, so withPool is set only while no query is in flight.
func (f *fleet) counters(withPool bool) fleetCounters {
	var c fleetCounters
	for i, n := range f.nodes {
		ms := n.MessengerStats()
		c.sent += ms.Sent
		c.dropped += ms.Dropped
		c.redials += ms.Redials
		st := n.Stats()
		c.execs += st.AgentsExecuted
		c.forwards += st.AgentsForwarded
		c.dups += st.DuplicatesDropped
		c.journal += n.Journal().Total()
		cs := n.CacheStats()
		hits, misses := cs.Cache.Hits+cs.Cache.NegativeHits, cs.Cache.Misses
		if i == f.spec.topo.Base {
			c.baseHits += hits
			c.baseMisses += misses
		} else {
			c.serveHits += hits
			c.serveMisses += misses
		}
		c.cachePuts += cs.Cache.Insertions
		c.selective += cs.Selective
		c.flood += cs.Flood
		c.explored += cs.Explored
		if withPool {
			ss := f.stores[i].Stats()
			c.poolHits += ss.PoolHits
			c.poolMisses += ss.PoolMisses
		}
	}
	c.wireBytes = f.net.written.Load()
	return c
}

// raceDetector is set by a test file built only under -race.
var raceDetector bool

// queueDepth sums the messengers' send-queue gauges. The gauge is only
// reachable through a whole-registry snapshot, which also evaluates the
// store gauges — and those read the buffer pool's counters without its
// lock. Under the race detector that (pre-existing, benign) read would
// fail the harness's own tests, so sampling is skipped there.
func (f *fleet) queueDepth() float64 {
	if raceDetector {
		return 0
	}
	depth := 0.0
	for _, n := range f.nodes {
		depth += n.Metrics().Snapshot().Value("bestpeer_transport_send_queue_depth")
	}
	return depth
}

// oracle is the exact expected answer set, derived from the same
// workload.Spec that populated the stores.
type oracle struct {
	objs   []map[string]objInfo // per node: object name → what it must carry
	counts []map[string]int     // per node: keyword → matching objects
}

type objInfo struct {
	keyword string
	size    int
	sum     uint32
}

func newOracle(spec *workload.Spec, nodes int) *oracle {
	o := &oracle{}
	for i := 0; i < nodes; i++ {
		objs := make(map[string]objInfo, spec.ObjectsPerNode)
		counts := make(map[string]int)
		for _, obj := range spec.Objects(i) {
			kw := obj.Keywords[0]
			objs[obj.Name] = objInfo{keyword: kw, size: len(obj.Data), sum: crc32.ChecksumIEEE(obj.Data)}
			counts[kw]++
		}
		o.objs = append(o.objs, objs)
		o.counts = append(o.counts, counts)
	}
	return o
}

// expected is how many answers keyword must draw from the fleet, with or
// without the base's own store.
func (o *oracle) expected(keyword string, base int, skipLocal bool) int {
	total := 0
	for i, c := range o.counts {
		if skipLocal && i == base {
			continue
		}
		total += c[keyword]
	}
	return total
}

// verify checks one query's answers: every answer must name an object
// the answering node really holds under that keyword, carry exactly its
// bytes, and appear once.
func (o *oracle) verify(f *fleet, keyword string, answers []core.Answer) error {
	type key struct {
		node int
		name string
	}
	seen := make(map[key]bool, len(answers))
	for _, a := range answers {
		node, ok := f.addrIdx[a.PeerAddr]
		if !ok {
			return fmt.Errorf("answer from unknown peer %q", a.PeerAddr)
		}
		info, ok := o.objs[node][a.Result.Name]
		if !ok || info.keyword != keyword {
			return fmt.Errorf("node %d answered %q with %q, which it does not hold under that keyword", node, keyword, a.Result.Name)
		}
		if len(a.Result.Data) != info.size || crc32.ChecksumIEEE(a.Result.Data) != info.sum {
			return fmt.Errorf("node %d object %q came back with the wrong bytes", node, a.Result.Name)
		}
		k := key{node, a.Result.Name}
		if seen[k] {
			return fmt.Errorf("node %d object %q answered twice", node, a.Result.Name)
		}
		seen[k] = true
	}
	return nil
}

// settleGoroutines waits for the goroutine count to fall back to the
// level seen before set-up and reports the excess if it does not within
// the settle time: a fleet that leaks would load the next workload.
func settleGoroutines(before int) error {
	deadline := time.NewTimer(3 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return nil
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			return fmt.Errorf("%d goroutines outlived teardown (%d before set-up, %d after)", now-before, before, now)
		}
	}
}

// newKeywordAgent is the query every workload issues.
func newKeywordAgent(keyword string) *agent.KeywordAgent {
	return &agent.KeywordAgent{Query: keyword}
}
