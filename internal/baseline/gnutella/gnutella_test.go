package gnutella

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/transport"
)

type cluster struct {
	nw       *transport.InProc
	servants []*Servant
}

func newCluster(t *testing.T, n int, seed func(i int, s *storm.Store)) *cluster {
	t.Helper()
	c := &cluster{nw: transport.NewInProc()}
	for i := 0; i < n; i++ {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("g%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seed != nil {
			seed(i, st)
		} else {
			st.Put(&storm.Object{Name: fmt.Sprintf("file-%d.txt", i), Keywords: []string{"txt"}})
		}
		sv, err := NewServant(Config{Network: c.nw, ListenAddr: fmt.Sprintf("gnu-%d", i), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		c.servants = append(c.servants, sv)
		store := st
		t.Cleanup(func() { sv.Close(); store.Close() })
	}
	return c
}

func (c *cluster) wire(tp *topology.Topology) {
	for i, sv := range c.servants {
		var addrs []string
		for _, j := range tp.Peers(i) {
			addrs = append(addrs, c.servants[j].Addr())
		}
		sv.SetPeers(addrs)
	}
}

func TestQueryFloodAndHitRouting(t *testing.T) {
	// Line 0-1-2-3: hits from 3 must route back through 2 and 1.
	c := newCluster(t, 4, func(i int, s *storm.Store) {
		if i == 3 {
			s.Put(&storm.Object{Name: "rare-song.mp3", Keywords: []string{"rare"}})
		}
	})
	c.wire(topology.Line(4))
	hits, err := c.servants[0].Query("rare", QueryOptions{Timeout: 2 * time.Second, WaitHits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Name != "rare-song.mp3" || hits[0].Origin != c.servants[3].Addr() {
		t.Fatalf("hits = %+v", hits)
	}
	for _, i := range []int{1, 2} {
		sv := c.servants[i]
		sv.mu.Lock()
		routed := sv.HitsRouted
		sv.mu.Unlock()
		if routed == 0 {
			t.Fatalf("servant %d did not route the hit back", i)
		}
	}
}

func TestQueryFindsAllHolders(t *testing.T) {
	c := newCluster(t, 6, nil)
	c.wire(topology.Tree(6, 2))
	hits, err := c.servants[0].Query("txt", QueryOptions{Timeout: 2 * time.Second, WaitHits: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 6 {
		t.Fatalf("hits = %d, want 6", len(hits))
	}
	origins := map[string]bool{}
	for _, h := range hits {
		origins[h.Origin] = true
	}
	if len(origins) != 6 {
		t.Fatalf("origins = %v", origins)
	}
}

func TestDuplicateSuppressionInCycle(t *testing.T) {
	c := newCluster(t, 3, nil)
	// Full mesh: every descriptor reaches each servant along 2 paths.
	for i, sv := range c.servants {
		var addrs []string
		for j, other := range c.servants {
			if j != i {
				addrs = append(addrs, other.Addr())
			}
		}
		sv.SetPeers(addrs)
	}
	hits, err := c.servants[0].Query("txt", QueryOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want exactly 3 (dup suppression)", len(hits))
	}
	for _, sv := range c.servants[1:] {
		sv.mu.Lock()
		ex := sv.Executed
		sv.mu.Unlock()
		if ex != 1 {
			t.Fatalf("servant executed query %d times", ex)
		}
	}
}

func TestTTLLimitsFlood(t *testing.T) {
	c := newCluster(t, 6, nil)
	c.wire(topology.Line(6))
	hits, err := c.servants[0].Query("txt", QueryOptions{TTL: 2, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 { // self + nodes 1, 2
		t.Fatalf("hits = %d, want 3", len(hits))
	}
}

func TestPingPongDiscovery(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.wire(topology.Line(4))
	pongs := c.servants[0].Ping(700 * time.Millisecond)
	if len(pongs) != 3 {
		t.Fatalf("pongs = %+v", pongs)
	}
	seen := map[string]bool{}
	for _, p := range pongs {
		seen[p.Addr] = true
		if p.Files != 1 {
			t.Fatalf("pong advertises %d files", p.Files)
		}
	}
	for _, sv := range c.servants[1:] {
		if !seen[sv.Addr()] {
			t.Fatalf("missing pong from %s", sv.Addr())
		}
	}
}

func TestFixedPeersNeverChange(t *testing.T) {
	c := newCluster(t, 3, func(i int, s *storm.Store) {
		if i == 2 {
			s.Put(&storm.Object{Name: "win", Keywords: []string{"w"}})
		}
	})
	c.wire(topology.Line(3))
	before := c.servants[0].Peers()
	if _, err := c.servants[0].Query("w", QueryOptions{Timeout: time.Second, WaitHits: 1}); err != nil {
		t.Fatal(err)
	}
	after := c.servants[0].Peers()
	if len(before) != len(after) || before[0] != after[0] {
		t.Fatalf("gnutella peer set changed: %v -> %v", before, after)
	}
}

func TestClosedServant(t *testing.T) {
	c := newCluster(t, 1, nil)
	c.servants[0].Close()
	if _, err := c.servants[0].Query("x", QueryOptions{}); err != ErrClosed {
		t.Fatalf("query after close: %v", err)
	}
	if got := c.servants[0].Ping(time.Millisecond); got != nil {
		t.Fatalf("ping after close: %v", got)
	}
	if err := c.servants[0].Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServant(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestHitHopsRecorded(t *testing.T) {
	c := newCluster(t, 4, func(i int, s *storm.Store) {
		if i == 3 {
			s.Put(&storm.Object{Name: "deep-file", Keywords: []string{"d"}})
		}
	})
	c.wire(topology.Line(4))
	hits, err := c.servants[0].Query("d", QueryOptions{Timeout: 2 * time.Second, WaitHits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Hops != 3 {
		t.Fatalf("hit hops = %+v", hits)
	}
}
