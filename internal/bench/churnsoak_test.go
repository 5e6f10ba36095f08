package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/liglo"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/workload"
)

// soakSlot is one fleet position: the store outlives node generations,
// exactly as a real host's disk outlives its process.
type soakSlot struct {
	store *storm.Store
	node  *core.Node
	stop  func()
	gen   int
}

func (s *soakSlot) up() bool { return s.node != nil }

// TestChurnSoak runs a live 8-node fleet (real stores, real agents,
// in-process transport, a real LIGLO server) under continuous
// kill/restart churn with queries flowing throughout, then asserts the
// fleet recovers recall once churn stops and that a full teardown leaks
// no goroutines. `make churnsoak` runs it race-enabled with a longer
// budget via CHURNSOAK_MS.
func TestChurnSoak(t *testing.T) {
	churnFor := 8 * time.Second
	if msStr := os.Getenv("CHURNSOAK_MS"); msStr != "" {
		v, err := strconv.Atoi(msStr)
		if err != nil {
			t.Fatalf("bad CHURNSOAK_MS %q: %v", msStr, err)
		}
		churnFor = time.Duration(v) * time.Millisecond
	}
	baseline := runtime.NumGoroutine()

	nw := transport.NewInProc()
	// The server probes member liveness: crashed generations leave stale
	// registry entries behind, and without a sweep Replenish would keep
	// handing survivors dead addresses.
	srv, err := liglo.NewServer(nw, "liglo-soak", liglo.ServerConfig{
		InitialPeers:  3,
		ProbeInterval: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const fleet = 8
	spec := &workload.Spec{ObjectsPerNode: 50, ObjectSize: 256, Vocabulary: 8, Seed: 1}
	query := spec.Keyword(3)
	dir := t.TempDir()

	slots := make([]*soakSlot, fleet)
	for i := range slots {
		st, err := storm.Open(filepath.Join(dir, fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Populate(i, st); err != nil {
			t.Fatal(err)
		}
		slots[i] = &soakSlot{store: st}
	}

	start := func(i int) {
		s := slots[i]
		s.gen++
		node, err := core.NewNode(core.Config{
			Network:    nw,
			ListenAddr: fmt.Sprintf("soak-%d-g%d", i, s.gen),
			Store:      s.store,
			MaxPeers:   4,
		})
		if err != nil {
			t.Fatalf("slot %d gen %d: %v", i, s.gen, err)
		}
		if err := node.Join([]string{srv.Addr()}); err != nil {
			_ = node.Close() // join failed; discard the half-started node
			t.Fatalf("slot %d join: %v", i, err)
		}
		s.node = node
		s.stop = node.StartRepair(400*time.Millisecond, 150*time.Millisecond)
	}
	down := func(i int, graceful bool) {
		s := slots[i]
		s.stop()
		if graceful {
			_ = s.node.Leave() // transport best-effort; the soak measures recovery
		}
		_ = s.node.Close() // in-proc close is unconditional
		s.node, s.stop = nil, nil
	}
	for i := range slots {
		start(i)
	}

	// Churn loop: slot 0 is the stable base issuing queries; every other
	// slot flaps between up (graceful leave or crash) and down (restart,
	// fresh generation, same store).
	rng := rand.New(rand.NewSource(42))
	queries, failures := 0, 0
	deadline := time.Now().Add(churnFor)
	for time.Now().Before(deadline) {
		victim := 1 + rng.Intn(fleet-1)
		if slots[victim].up() {
			down(victim, rng.Intn(2) == 0)
		} else {
			start(victim)
		}
		res, err := slots[0].node.Query(&agent.KeywordAgent{Query: query}, core.QueryOptions{
			Timeout:   300 * time.Millisecond,
			SkipLocal: true,
		})
		queries++
		if err != nil || len(res.Answers) == 0 {
			failures++
		}
		time.Sleep(120 * time.Millisecond)
	}
	if queries == 0 {
		t.Fatal("no queries issued during churn")
	}
	t.Logf("churn phase: %d queries, %d empty/failed", queries, failures)

	// Recovery: bring every slot back, give the repair loops a few
	// rounds, and demand the fleet answers like a healthy network.
	for i := 1; i < fleet; i++ {
		if !slots[i].up() {
			start(i)
		}
	}
	expected := 0
	for i := 1; i < fleet; i++ {
		expected += spec.MatchCount(i, query)
	}
	var answers int
	for attempt := 0; attempt < 15; attempt++ {
		// Force one heal cycle fleet-wide instead of waiting on the
		// background loops: drop edges to dead generations, then
		// backfill from the (probed, truthful) registry.
		for _, s := range slots {
			var alive []core.Peer
			for _, p := range s.node.Peers() {
				if s.node.Probe(p.Addr, 150*time.Millisecond) {
					alive = append(alive, p)
				}
			}
			s.node.SetPeers(alive)
			s.node.RepairRound("soak-recovery", 150*time.Millisecond)
		}
		res, err := slots[0].node.Query(&agent.KeywordAgent{Query: query}, core.QueryOptions{
			Timeout:     2 * time.Second,
			WaitAnswers: expected,
			SkipLocal:   true,
		})
		if err == nil {
			answers = len(res.Answers)
			if answers >= expected {
				break
			}
		}
		time.Sleep(300 * time.Millisecond)
	}
	if expected == 0 {
		t.Fatal("workload planted no matches; the soak cannot measure recall")
	}
	for i, s := range slots {
		t.Logf("slot %d gen %d addr %s peers %v", i, s.gen, s.node.Addr(), s.node.PeerAddrs())
	}
	if floor := expected / 2; answers < floor {
		t.Errorf("post-churn recall %d/%d below floor %d", answers, expected, floor)
	}
	t.Logf("recovery: %d/%d answers", answers, expected)

	// Full teardown must return the process to its goroutine baseline:
	// every node generation's repair loop, send workers and agent
	// containers included.
	for i := range slots {
		if slots[i].up() {
			down(i, false)
		}
		_ = slots[i].store.Close() // teardown; leak check below is the assertion
	}
	_ = srv.Close() // teardown; leak check below is the assertion
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(leakDeadline) {
			var buf []byte
			buf = make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s\nprofile:\n%v",
				runtime.NumGoroutine(), baseline, buf, pprof.Lookup("goroutine"))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
