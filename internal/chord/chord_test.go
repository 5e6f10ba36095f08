package chord

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b Key
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false},
		{10, 20, 20, false},
		{10, 5, 20, false},
		{20, 25, 10, true},  // wrap
		{20, 5, 10, true},   // wrap
		{20, 15, 10, false}, // wrap
		{7, 3, 7, true},     // full circle minus a
		{7, 7, 7, false},
	}
	for _, c := range cases {
		if got := Between(c.a, c.x, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
	if !BetweenRightIncl(10, 20, 20) {
		t.Error("BetweenRightIncl must include the right endpoint")
	}
	if !BetweenRightIncl(7, 7, 7) {
		t.Error("a single-node interval owns every key, including its own")
	}
}

func TestFingerStartWraps(t *testing.T) {
	k := Key(1) << 63
	if got := fingerStart(k, 63); got != 0 {
		t.Fatalf("fingerStart wrap = %d, want 0", got)
	}
	if got := fingerStart(5, 0); got != 6 {
		t.Fatalf("fingerStart(5,0) = %d", got)
	}
}

func TestTableSingleNodeOwnsEverything(t *testing.T) {
	self := RefFor("solo")
	tb := NewTable(self, 4)
	for _, k := range []Key{0, self.Key, self.Key + 1, ^Key(0)} {
		if !tb.Owns(k) {
			t.Fatalf("solo node must own key %d", k)
		}
		owner, _, done := tb.NextHop(k, nil)
		if !done || owner.Addr != "solo" {
			t.Fatalf("solo NextHop(%d) = %v done=%v", k, owner, done)
		}
	}
}

// buildRing wires n Tables into a converged ring directly: sorted by
// key, each with full successor lists and exact fingers.
func buildRing(addrs []string, succLen int) []*Table {
	return ConvergedTables(addrs, succLen)
}

func TestTableRoutingConverges(t *testing.T) {
	addrs := make([]string, 32)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d", i)
	}
	tables := buildRing(addrs, 4)
	byAddr := make(map[string]*Table, len(tables))
	var refs []NodeRef
	for _, tb := range tables {
		byAddr[tb.Self().Addr] = tb
		refs = append(refs, tb.Self())
	}
	wantOwner := func(k Key) NodeRef {
		best, bestDist := 0, uint64(refs[0].Key-k)
		for j, r := range refs {
			if d := uint64(r.Key - k); d < bestDist {
				best, bestDist = j, d
			}
		}
		return refs[best]
	}
	maxHops := 0
	for i := 0; i < 200; i++ {
		k := HashString(fmt.Sprintf("key-%d", i))
		cur := tables[i%len(tables)]
		hops := 0
		for {
			owner, hop, done := cur.NextHop(k, nil)
			if done {
				if owner.Addr != wantOwner(k).Addr {
					t.Fatalf("key %d resolved to %s, want %s", k, owner.Addr, wantOwner(k).Addr)
				}
				break
			}
			cur = byAddr[hop.Addr]
			hops++
			if hops > 64 {
				t.Fatalf("key %d did not resolve in 64 hops", k)
			}
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// ceil(log2(32)) = 5; the +1 covers the final ownership step.
	if maxHops > 6 {
		t.Fatalf("max hops %d over a converged 32-node ring", maxHops)
	}
}

// liveHarness accepts connections for a set of live nodes, dispatching
// chord envelopes the way the ring-mode LIGLO server does.
type liveHarness struct {
	t  *testing.T
	nw *transport.InProc
	mu sync.Mutex
	ns map[string]*liveEntry
}

type liveEntry struct {
	node *Node
	l    interface{ Close() error }
	wg   *sync.WaitGroup
}

func newLiveHarness(t *testing.T) *liveHarness {
	h := &liveHarness{t: t, nw: transport.NewInProc(), ns: make(map[string]*liveEntry)}
	t.Cleanup(h.closeAll)
	return h
}

// testConfig keeps the background cadences out of the test's way: the
// test drives Stabilize/RefreshFingers explicitly for determinism.
func testConfig() Config {
	return Config{
		StabilizeEvery:  time.Hour,
		FixFingersEvery: time.Hour,
		CheckPredEvery:  time.Hour,
	}
}

func (h *liveHarness) spawn(addr string, cfg Config) *Node {
	h.t.Helper()
	l, err := h.nw.Listen(addr)
	if err != nil {
		h.t.Fatal(err)
	}
	n := New(h.nw, addr, cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				wc := wire.NewConn(conn)
				for {
					req, err := wc.Recv()
					if err != nil {
						return
					}
					resp := n.HandleEnvelope(req)
					if resp == nil {
						return
					}
					if err := wc.Send(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	h.mu.Lock()
	h.ns[addr] = &liveEntry{node: n, l: l, wg: &wg}
	h.mu.Unlock()
	return n
}

// crash kills a node without any goodbye: listener closed, loops stopped.
func (h *liveHarness) crash(addr string) {
	h.mu.Lock()
	e := h.ns[addr]
	delete(h.ns, addr)
	h.mu.Unlock()
	if e == nil {
		return
	}
	_ = e.l.Close()
	_ = e.node.Close()
	e.wg.Wait()
}

func (h *liveHarness) closeAll() {
	h.mu.Lock()
	entries := make([]*liveEntry, 0, len(h.ns))
	for _, e := range h.ns {
		entries = append(entries, e)
	}
	h.ns = make(map[string]*liveEntry)
	h.mu.Unlock()
	for _, e := range entries {
		_ = e.node.Close()
		_ = e.l.Close()
		e.wg.Wait()
	}
}

func stabilizeAll(nodes []*Node, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	for _, n := range nodes {
		n.RefreshFingers()
	}
}

// ringOrder walks successor pointers from start and returns the visited
// addresses until the walk returns to start or exceeds limit.
func ringOrder(start *Node, byAddr map[string]*Node, limit int) []string {
	var out []string
	cur := start
	for i := 0; i < limit; i++ {
		out = append(out, cur.self.Addr)
		next := byAddr[cur.Snapshot().Successors[0].Addr]
		if next == nil || next == start {
			return out
		}
		cur = next
	}
	return out
}

func TestLiveRingConvergesAndResolves(t *testing.T) {
	h := newLiveHarness(t)
	const n = 6
	var nodes []*Node
	byAddr := make(map[string]*Node)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("c%d", i)
		nd := h.spawn(addr, testConfig())
		byAddr[addr] = nd
		if i == 0 {
			nd.Create()
		} else if err := nd.Join("c0"); err != nil {
			t.Fatalf("join %s: %v", addr, err)
		}
		nodes = append(nodes, nd)
		stabilizeAll(nodes, 3)
	}
	stabilizeAll(nodes, 4)

	order := ringOrder(nodes[0], byAddr, 2*n)
	if len(order) != n {
		t.Fatalf("ring walk visited %d nodes, want %d: %v", len(order), n, order)
	}

	// Every node resolves every key to the same owner.
	for i := 0; i < 20; i++ {
		k := HashString(fmt.Sprintf("key-%d", i))
		want, _, err := nodes[0].FindOwner(k)
		if err != nil {
			t.Fatal(err)
		}
		if !byAddr[want.Addr].Owns(k) {
			t.Fatalf("resolved owner %s does not own key %d", want.Addr, k)
		}
		for _, nd := range nodes[1:] {
			got, hops, err := nd.FindOwner(k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Addr != want.Addr {
				t.Fatalf("node %s resolved key %d to %s, want %s",
					nd.self.Addr, k, got.Addr, want.Addr)
			}
			if hops > n {
				t.Fatalf("lookup took %d hops on a %d-node ring", hops, n)
			}
		}
	}
}

func TestLiveGracefulLeaveHandsOff(t *testing.T) {
	h := newLiveHarness(t)
	var nodes []*Node
	byAddr := make(map[string]*Node)
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("g%d", i)
		nd := h.spawn(addr, testConfig())
		byAddr[addr] = nd
		if i == 0 {
			nd.Create()
		} else if err := nd.Join("g0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		stabilizeAll(nodes, 3)
	}
	stabilizeAll(nodes, 3)

	leaver := nodes[2]
	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	h.crash(leaver.self.Addr) // stop serving, like a real process exit
	rest := []*Node{nodes[0], nodes[1], nodes[3]}
	delete(byAddr, leaver.self.Addr)
	stabilizeAll(rest, 4)

	order := ringOrder(rest[0], byAddr, 8)
	if len(order) != 3 {
		t.Fatalf("post-leave ring walk: %v", order)
	}
	for i := 0; i < 10; i++ {
		k := HashString(fmt.Sprintf("after-leave-%d", i))
		owner, _, err := rest[0].FindOwner(k)
		if err != nil {
			t.Fatalf("lookup after leave: %v", err)
		}
		if owner.Addr == leaver.self.Addr {
			t.Fatalf("key %d still resolves to the departed node", k)
		}
	}
}

func TestLiveCrashRepairViaSuccessorList(t *testing.T) {
	h := newLiveHarness(t)
	var nodes []*Node
	byAddr := make(map[string]*Node)
	for i := 0; i < 5; i++ {
		addr := fmt.Sprintf("x%d", i)
		nd := h.spawn(addr, testConfig())
		byAddr[addr] = nd
		if i == 0 {
			nd.Create()
		} else if err := nd.Join("x0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		stabilizeAll(nodes, 3)
	}
	stabilizeAll(nodes, 4)

	victim := nodes[3]
	h.crash(victim.self.Addr) // no goodbye
	delete(byAddr, victim.self.Addr)
	var rest []*Node
	for _, nd := range nodes {
		if nd != victim {
			rest = append(rest, nd)
		}
	}
	// Several rounds: the predecessor's probe fails, the successor list
	// shifts, check-predecessor clears the stale slot.
	for r := 0; r < 6; r++ {
		for _, nd := range rest {
			nd.Stabilize()
			nd.CheckPredecessor()
		}
	}
	for _, nd := range rest {
		nd.RefreshFingers()
	}

	order := ringOrder(rest[0], byAddr, 10)
	if len(order) != 4 {
		t.Fatalf("post-crash ring walk: %v", order)
	}
	for i := 0; i < 10; i++ {
		k := HashString(fmt.Sprintf("after-crash-%d", i))
		for _, nd := range rest {
			owner, _, err := nd.FindOwner(k)
			if err != nil {
				t.Fatalf("lookup after crash from %s: %v", nd.self.Addr, err)
			}
			if owner.Addr == victim.self.Addr {
				t.Fatalf("key %d still resolves to the crashed node", k)
			}
		}
	}
}

// TestStabilizePurgesCrashedSuccessor pins the ring's own failure
// handling: a stabilize round whose successor probe fails drops the dead
// successor and journals the neighbour change.
func TestStabilizePurgesCrashedSuccessor(t *testing.T) {
	h := newLiveHarness(t)
	j := obs.NewJournal("test", 64)
	cfgA := testConfig()
	cfgA.Journal = j
	a := h.spawn("s0", cfgA)
	b := h.spawn("s1", testConfig())
	a.Create()
	if err := b.Join("s0"); err != nil {
		t.Fatal(err)
	}
	stabilizeAll([]*Node{a, b}, 3)
	if a.Snapshot().Successors[0].Addr != "s1" {
		t.Fatalf("a's successor = %v", a.Snapshot().Successors)
	}
	h.crash("s1")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.Snapshot().Successors[0].Addr == "s0" {
			break
		}
		a.Stabilize()
	}
	if got := a.Snapshot().Successors[0].Addr; got != "s0" {
		t.Fatalf("suspect successor not purged: %v", got)
	}
	events, _, _ := j.Since(0, 0)
	seen := false
	for _, e := range events {
		if e.Kind == obs.EvRingNeighborChanged {
			seen = true
		}
	}
	if !seen {
		t.Fatal("no ring-neighbor-changed event journalled")
	}
}
