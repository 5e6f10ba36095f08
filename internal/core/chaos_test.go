package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/liglo"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
)

// Chaos tests drive full BestPeer nodes through the failure classes the
// paper's liveness story depends on — lossy links, partitions, dead
// LIGLO servers, half-dead hosts — using the faultnet fabric. Every node
// sees the network through its own fabric.Host view, so directional
// faults apply per edge.

// chaosTransport tunes the messenger for fast failure detection, so
// tests spend milliseconds (not default seconds) waiting out faults.
func chaosTransport() transport.Options {
	return transport.Options{
		DialTimeout:   250 * time.Millisecond,
		WriteTimeout:  250 * time.Millisecond,
		QueueSize:     256,
		FailThreshold: 2,
		BackoffBase:   50 * time.Millisecond,
		BackoffMax:    250 * time.Millisecond,
	}
}

func chaosLiglo() liglo.ClientOptions {
	return liglo.ClientOptions{
		DialTimeout: 250 * time.Millisecond,
		CallTimeout: time.Second,
		Retries:     2,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
	}
}

// newChaosCluster starts n nodes whose traffic all flows through one
// fault fabric seeded for reproducibility.
func newChaosCluster(t *testing.T, n int, seed int64, seedFn func(i int, s *storm.Store)) (*cluster, *faultnet.Fabric) {
	t.Helper()
	fab := faultnet.New(transport.NewInProc(), seed)
	c := newCluster(t, n, func(i int, cfg *Config) {
		cfg.Network = fab.Host(cfg.ListenAddr)
		cfg.Transport = chaosTransport()
		cfg.Liglo = chaosLiglo()
	}, seedFn)
	return c, fab
}

// TestChaosQueryUnderMessageLoss floods a 20-node random overlay with a
// query while every message independently has a 20% chance of being
// dropped. Redundant paths and direct answer returns must still deliver
// a healthy majority of the answers.
func TestChaosQueryUnderMessageLoss(t *testing.T) {
	const n = 20
	c, fab := newChaosCluster(t, n, 1, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("music-%d", i),
			Keywords: []string{"music"},
			Data:     []byte{byte(i)},
		})
	})
	c.wire(topology.Random(n, 4, 7))
	fab.SetConfig(faultnet.Config{DropProb: 0.2})

	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "music"}, QueryOptions{
		Timeout:       2 * time.Second,
		NoReconfigure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 answers locally; 19 remote answers are each at risk. With
	// p=0.2 per message and redundant propagation paths, fewer than half
	// arriving would mean the non-blocking path is eating messages on
	// top of the injected loss.
	if got := len(res.Answers); got < 10 {
		t.Fatalf("answers = %d of %d under 20%% loss, want >= 10 (stats: %+v)",
			got, n, fab.Stats())
	}
	if s := fab.Stats(); s.MessagesDropped == 0 {
		t.Fatalf("fault fabric dropped nothing; the test exercised a perfect network")
	}
	t.Logf("answers=%d/%d stats=%+v", len(res.Answers), n, fab.Stats())
}

// TestChaosPartitionHealsViaSweepAndReplenish partitions an 8-node
// network in half, lets a sweep drop the unreachable half, then
// heals and replenishes from LIGLO — the paper's "simply replace those
// peers by new peers that it encounters".
func TestChaosPartitionHealsViaSweepAndReplenish(t *testing.T) {
	const n = 8
	c, fab := newChaosCluster(t, n, 2, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("chaos-%d", i),
			Keywords: []string{"chaos"},
			Data:     []byte{byte(i)},
		})
	})
	srv, err := liglo.NewServer(fab.Host("liglo-chaos"), "liglo-chaos", liglo.ServerConfig{InitialPeers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, node := range c.nodes {
		if err := node.Join([]string{"liglo-chaos"}); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-wire the halves: node i peers with a same-half neighbour and
	// its opposite number across the divide.
	var halfA, halfB []string
	for i, node := range c.nodes {
		same := (i + 1) % (n / 2)
		cross := (i + n/2) % n
		if i >= n/2 {
			same += n / 2
			cross = i - n/2
		}
		node.SetPeers([]Peer{
			{Addr: c.nodes[same].Addr()},
			{Addr: c.nodes[cross].Addr()},
		})
		if i < n/2 {
			halfA = append(halfA, node.Addr())
		} else {
			halfB = append(halfB, node.Addr())
		}
	}

	base := c.nodes[0]
	crossAddr := c.nodes[n/2].Addr()
	if !base.Probe(crossAddr, 500*time.Millisecond) {
		t.Fatal("cross-half probe failed before the partition")
	}

	// Partition: the LIGLO server is in neither set, so it stays
	// reachable from both sides, as a global-name server should be.
	fab.Partition(halfA, halfB)
	if base.Probe(crossAddr, 500*time.Millisecond) {
		t.Fatal("probe crossed a live partition")
	}
	dropped := sweep(base, 500*time.Millisecond)
	if dropped == 0 {
		t.Fatal("sweep found no unresponsive peers during the partition")
	}
	for _, addr := range base.PeerAddrs() {
		for _, b := range halfB {
			if addr == b {
				t.Fatalf("peer %s from the far half survived the sweep", addr)
			}
		}
	}

	fab.HealPartitions()
	added, err := base.Replenish()
	if err != nil {
		t.Fatalf("replenish after heal: %v", err)
	}
	if added == 0 {
		t.Fatal("replenish added no peers despite freed slots")
	}
	// Let any suspect backoff from partition-era failures lapse.
	time.Sleep(500 * time.Millisecond)

	res, err := base.Query(&agent.KeywordAgent{Query: "chaos"}, QueryOptions{
		Timeout:       2 * time.Second,
		NoReconfigure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundFar := false
	for _, a := range res.Answers {
		for _, b := range halfB {
			if a.PeerAddr == b {
				foundFar = true
			}
		}
	}
	if !foundFar {
		t.Fatalf("no answers from the healed half; answers=%v", collectNames(res.Answers))
	}
}

// TestChaosPartitionMetricsAccountForLoss checks the observability story
// under faults: when a partition eats half the network mid-query, the
// loss is visible in the metrics — the fabric counts refused dials, the
// transport counts dropped sends, and the base's query trace contains
// spans only from the reachable half, with duplicate-drop spans agreeing
// with the nodes' drop-reason counters.
func TestChaosPartitionMetricsAccountForLoss(t *testing.T) {
	const n = 6
	fabReg := obs.NewRegistry()
	fab := faultnet.NewWithRegistry(transport.NewInProc(), 5, fabReg)
	c := newCluster(t, n, func(i int, cfg *Config) {
		cfg.Network = fab.Host(cfg.ListenAddr)
		cfg.Transport = chaosTransport()
		cfg.Liglo = chaosLiglo()
	}, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("acct-%d", i),
			Keywords: []string{"acct"},
			Data:     []byte{byte(i)},
		})
	})
	// Full mesh, then cut it in half.
	var halfA, halfB []string
	for i, node := range c.nodes {
		var peers []Peer
		for j := range c.nodes {
			if j != i {
				peers = append(peers, Peer{Addr: c.nodes[j].Addr()})
			}
		}
		node.SetPeers(peers)
		if i < n/2 {
			halfA = append(halfA, node.Addr())
		} else {
			halfB = append(halfB, node.Addr())
		}
	}
	fab.Partition(halfA, halfB)

	base := c.nodes[0]
	res, err := base.Query(&agent.KeywordAgent{Query: "acct"}, QueryOptions{
		Timeout:       1500 * time.Millisecond,
		NoReconfigure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	far := make(map[string]bool, len(halfB))
	for _, b := range halfB {
		far[b] = true
	}
	for _, a := range res.Answers {
		if far[a.PeerAddr] {
			t.Fatalf("answer from %s crossed a live partition", a.PeerAddr)
		}
	}
	if len(res.Answers) != n/2 {
		t.Fatalf("answers = %d, want %d (the reachable half)", len(res.Answers), n/2)
	}

	// The fabric's registry accounts for every refused dial it reported.
	fs := fab.Stats()
	if fs.DialsRefused == 0 {
		t.Fatal("partition refused no dials; the query never hit the cut")
	}
	snap := fabReg.Snapshot()
	if got := snap.Value("bestpeer_faultnet_dials_refused_total"); got != float64(fs.DialsRefused) {
		t.Fatalf("faultnet metric dials_refused = %v, stats say %d", got, fs.DialsRefused)
	}
	if got := snap.Value("bestpeer_faultnet_messages_dropped_total"); got != float64(fs.MessagesDropped) {
		t.Fatalf("faultnet metric messages_dropped = %v, stats say %d", got, fs.MessagesDropped)
	}

	// Sends into the far half died at the transport layer, and each
	// reachable node's registry accounts for its messenger's drop count.
	droppedTotal := uint64(0)
	for i := 0; i < n/2; i++ {
		node := c.nodes[i]
		dropped := uint64(0)
		if f := node.Metrics().Snapshot().Family("bestpeer_transport_messages_dropped_total"); f != nil {
			for _, m := range f.Metrics {
				dropped += uint64(m.Value)
			}
		}
		if got := node.MessengerStats().Dropped; got != dropped {
			t.Fatalf("node %d transport drops: metric %d != stats %d", i, dropped, got)
		}
		droppedTotal += dropped
	}
	if droppedTotal == 0 {
		t.Fatal("no transport drops recorded despite a partition mid-query")
	}

	// The trace holds spans from the reachable half only, and its
	// duplicate-drop spans match the nodes' drop-reason counters once
	// the asynchronous span reports settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr, ok := base.Trace(res.ID)
		if !ok {
			t.Fatal("no trace for the partitioned query")
		}
		executed, dupSpans := 0, uint64(0)
		for _, s := range tr.Spans {
			if far[s.Peer] {
				t.Fatalf("span from unreachable peer %s: %+v", s.Peer, s)
			}
			switch s.Drop {
			case "":
				executed++
			case "duplicate":
				dupSpans++
			}
		}
		dupMetric := uint64(0)
		for i := 0; i < n/2; i++ {
			dupMetric += c.nodes[i].Stats().DuplicatesDropped
		}
		if executed == n/2 && dupSpans == dupMetric {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never settled: executed=%d want %d, dup spans=%d vs metric %d",
				executed, n/2, dupSpans, dupMetric)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosVersion encodes a mutation counter as object data so an answer
// reveals which store generation produced it.
func chaosVersion(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// TestChaosNoStaleCachedAnswersUnderMutation is the qroute freshness
// invariant under fire: with 25% message loss and every serving node's
// store being rewritten concurrently, no node may serve a cached answer
// from a stale epoch. Each node's object carries a version counter and
// each mutator publishes the committed version only after Put returns —
// since Put fires the epoch hook before returning, any answer observed
// by a query that started afterwards must carry at least that version.
func TestChaosNoStaleCachedAnswersUnderMutation(t *testing.T) {
	const (
		n      = 5
		rounds = 50
	)
	fab := faultnet.New(transport.NewInProc(), 6)
	c := newCluster(t, n, func(i int, cfg *Config) {
		cfg.Network = fab.Host(cfg.ListenAddr)
		cfg.Transport = chaosTransport()
		if i != 0 {
			// Caching at the serving nodes only: a base-site cache would
			// hold remote answers whose staleness is bounded by TTL, not
			// by the remote store's epoch, and mask the serve-site checks.
			cfg.QRoute = qroute.Options{Enable: true, Route: qroute.RouteOptions{Epsilon: -1}}
		}
	}, func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("v-%d", i),
			Keywords: []string{"hot"},
			Data:     chaosVersion(0),
		})
	})
	c.wire(topology.Random(n, 3, 4))
	fab.SetConfig(faultnet.Config{DropProb: 0.25})

	// One mutator per serving node: rewrite the object, then publish the
	// committed version. The Sleep leaves room for several queries per
	// generation so the caches actually get hit between invalidations.
	var committed [n]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := uint64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.nodes[i].store.Put(&storm.Object{
					Name:     fmt.Sprintf("v-%d", i),
					Keywords: []string{"hot"},
					Data:     chaosVersion(v),
				}); err != nil {
					t.Errorf("mutator %d: %v", i, err)
					return
				}
				committed[i].Store(v)
				// Several query rounds fit in one generation, so caches
				// get hit between invalidations.
				time.Sleep(60 * time.Millisecond)
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	base := c.nodes[0]
	for r := 0; r < rounds; r++ {
		var floor [n]uint64
		for i := 1; i < n; i++ {
			floor[i] = committed[i].Load()
		}
		res, err := base.Query(&agent.KeywordAgent{Query: "hot"}, QueryOptions{
			Timeout:       15 * time.Millisecond,
			NoReconfigure: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Answers {
			idx, err := strconv.Atoi(strings.TrimPrefix(a.Result.Name, "v-"))
			if err != nil || idx < 0 || idx >= n {
				t.Fatalf("unexpected answer %q", a.Result.Name)
			}
			if len(a.Result.Data) != 8 {
				t.Fatalf("answer %q has no version payload", a.Result.Name)
			}
			got := binary.BigEndian.Uint64(a.Result.Data)
			if got < floor[idx] {
				t.Fatalf("round %d: node %d served version %d, but %d was committed "+
					"before the query started (cached=%v) — stale epoch leaked",
					r, idx, got, floor[idx], a.Cached)
			}
		}
	}

	// The invariant is vacuous if the caches were never exercised: the
	// serving nodes must have answered from cache at least once across
	// the run.
	hits := uint64(0)
	for i := 1; i < n; i++ {
		s := c.nodes[i].CacheStats()
		hits += s.Cache.Hits + s.Cache.NegativeHits
	}
	if hits == 0 {
		t.Fatal("no serve-site cache hits across the run; the test exercised nothing")
	}
	t.Logf("serve-site hits=%d drops=%+v", hits, fab.Stats())
}

// TestChaosLigloFailover kills LIGLO servers under a node's feet:
// registration fails over to the surviving server, Rejoin against a
// dead home errors out within its bounded retries instead of hanging,
// and succeeds once the home heals.
func TestChaosLigloFailover(t *testing.T) {
	c, fab := newChaosCluster(t, 1, 3, nil)
	srvA, err := liglo.NewServer(fab.Host("liglo-a"), "liglo-a", liglo.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := liglo.NewServer(fab.Host("liglo-b"), "liglo-b", liglo.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	node := c.nodes[0]
	fab.Kill("liglo-a")
	if err := node.Join([]string{"liglo-a", "liglo-b"}); err != nil {
		t.Fatalf("join with one dead server: %v", err)
	}
	if home := node.ID().LIGLO; home != "liglo-b" {
		t.Fatalf("registered with %q, want failover to liglo-b", home)
	}

	fab.Kill("liglo-b")
	start := time.Now()
	if err := node.Rejoin(); err == nil {
		t.Fatal("rejoin against a dead home server succeeded")
	}
	// Bounded: 3 attempts x (250ms dial timeout + backoff) plus
	// scheduling slack, nowhere near a hang.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rejoin took %v to give up; retries are not bounded", elapsed)
	}

	fab.Heal("liglo-b")
	if err := node.Rejoin(); err != nil {
		t.Fatalf("rejoin after heal: %v", err)
	}
}

// TestChaosHungPeerDoesNotStallQuery is the acceptance criterion for
// the non-blocking send path: a peer whose dial hangs (half-dead host)
// must not delay the answers of a responsive peer, even though the dial
// timeout is far longer than the whole query.
func TestChaosHungPeerDoesNotStallQuery(t *testing.T) {
	fab := faultnet.New(transport.NewInProc(), 4)
	// Dial timeout (2s) dwarfs the query window: if the fan-out dialed
	// inline, the hung first peer would eat the whole collection budget
	// several times over.
	c := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.Network = fab.Host(cfg.ListenAddr)
		cfg.Transport = transport.Options{DialTimeout: 2 * time.Second}
	}, func(i int, s *storm.Store) {
		if i == 2 {
			s.Put(&storm.Object{Name: "hot-take", Keywords: []string{"hot"}, Data: []byte("x")})
		}
	})
	base := c.nodes[0]
	hung, live := c.nodes[1].Addr(), c.nodes[2].Addr()
	base.SetPeers([]Peer{{Addr: hung}, {Addr: live}}) // hung peer first
	fab.HangDial(hung)
	defer fab.HealDial(hung)

	start := time.Now()
	res, err := base.Query(&agent.KeywordAgent{Query: "hot"}, QueryOptions{
		Timeout:       400 * time.Millisecond,
		WaitAnswers:   1,
		SkipLocal:     true,
		NoReconfigure: true,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Result.Name != "hot-take" {
		t.Fatalf("answers = %v, want the live peer's hot-take", collectNames(res.Answers))
	}
	if elapsed > time.Second {
		t.Fatalf("query took %v; a hung peer stalled the fan-out", elapsed)
	}
	t.Logf("query returned in %v with a hung first peer", elapsed)
}
