package core

import (
	"fmt"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/qroute"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
)

// qrEnabled builds a fixed overlay (static) and turns the qroute subsystem
// on for node i with deterministic routing (no ε-exploration) and a low
// confidence floor so single-answer histories already count.
func qrEnabled(on ...int) func(i int, cfg *Config) {
	set := make(map[int]bool, len(on))
	for _, i := range on {
		set[i] = true
	}
	return func(i int, cfg *Config) {
		static(i, cfg)
		if set[i] {
			cfg.QRoute = qroute.Options{
				Enable: true,
				Route:  qroute.RouteOptions{Epsilon: -1, MinScore: 0.5, TopF: 1},
			}
		}
	}
}

func TestBaseCacheHitSkipsFanOut(t *testing.T) {
	c := newCluster(t, 3, qrEnabled(0), func(i int, s *storm.Store) {
		s.Put(&storm.Object{
			Name:     fmt.Sprintf("music-%d", i),
			Keywords: []string{"music"},
			Data:     []byte{byte(i)},
		})
	})
	c.wire(topology.Star(3))
	opts := QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 3}

	res1, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "music"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached || len(res1.Answers) != 3 {
		t.Fatalf("first query must miss and collect 3 answers, got cached=%v n=%d",
			res1.Cached, len(res1.Answers))
	}
	peerExecs := c.nodes[1].Stats().AgentsExecuted + c.nodes[2].Stats().AgentsExecuted

	// Identical fingerprint (case-insensitively): whole query served from
	// the base cache, no agents spawned anywhere.
	res2, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "MUSIC"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || len(res2.Answers) != 3 {
		t.Fatalf("second query must hit, got cached=%v n=%d", res2.Cached, len(res2.Answers))
	}
	for _, a := range res2.Answers {
		if !a.Cached {
			t.Fatalf("cached answer must carry provenance: %+v", a)
		}
	}
	if got := c.nodes[1].Stats().AgentsExecuted + c.nodes[2].Stats().AgentsExecuted; got != peerExecs {
		t.Fatalf("cache hit must not reach peers: execs %d -> %d", peerExecs, got)
	}
	if s := c.nodes[0].CacheStats(); !s.Enabled || s.Cache.Hits != 1 {
		t.Fatalf("base cache stats = %+v, want one hit", s)
	}
}

func TestStoreMutationInvalidatesBaseCache(t *testing.T) {
	c := newCluster(t, 2, qrEnabled(0), nil)
	c.wire(topology.Star(2))
	opts := QueryOptions{Timeout: time.Second, WaitAnswers: 1}

	if _, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "kw0"}, opts); err != nil {
		t.Fatal(err)
	}
	// A local write retires every cached answer via the mutation hook.
	if _, err := c.nodes[0].store.Put(&storm.Object{
		Name: "fresh", Keywords: []string{"kw0"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "kw0"},
		QueryOptions{Timeout: time.Second, WaitAnswers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("query after a store mutation must not be served from cache")
	}
	if !collectNames(res.Answers)["fresh"] {
		t.Fatalf("post-mutation query must see the new object: %v", collectNames(res.Answers))
	}
	if s := c.nodes[0].CacheStats(); s.Cache.Epoch == 0 {
		t.Fatalf("mutation must bump the epoch: %+v", s)
	}
}

func TestNegativeCacheServesRepeatMisses(t *testing.T) {
	c := newCluster(t, 2, qrEnabled(0), nil)
	c.wire(topology.Star(2))
	opts := QueryOptions{Timeout: 250 * time.Millisecond}

	if res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "nothing-has-this"}, opts); err != nil {
		t.Fatal(err)
	} else if res.Cached || len(res.Answers) != 0 {
		t.Fatalf("first no-match query: %+v", res)
	}
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "nothing-has-this"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || len(res.Answers) != 0 {
		t.Fatalf("repeat no-match must hit the negative entry: %+v", res)
	}
	if s := c.nodes[0].CacheStats(); s.Cache.NegativeHits != 1 {
		t.Fatalf("stats = %+v, want one negative hit", s)
	}
}

func TestServeSiteCacheSkipsRepeatScans(t *testing.T) {
	// qroute is enabled only on the serving peer: the base floods every
	// time, but the peer's second scan is skipped and its answer arrives
	// flagged as cached.
	c := newCluster(t, 2, qrEnabled(1), func(i int, s *storm.Store) {
		if i == 1 {
			s.Put(&storm.Object{Name: "remote-obj", Keywords: []string{"remote"}})
		}
	})
	c.wire(topology.Star(2))
	opts := QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 1}

	res1, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "remote"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Answers) != 1 || res1.Answers[0].Cached {
		t.Fatalf("first round must be a fresh scan: %+v", res1.Answers)
	}
	res2, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "remote"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) != 1 || !res2.Answers[0].Cached {
		t.Fatalf("second round must be served from the peer's cache: %+v", res2.Answers)
	}
	if got := c.nodes[1].Stats().AgentsExecuted; got != 1 {
		t.Fatalf("peer executed %d agents, want 1 (second was a serve hit)", got)
	}

	// A mutation at the peer retires its serve-site entry: the next query
	// is a fresh scan again and sees the new object.
	if _, err := c.nodes[1].store.Put(&storm.Object{
		Name: "remote-obj-2", Keywords: []string{"remote"},
	}); err != nil {
		t.Fatal(err)
	}
	res3, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "remote"},
		QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Answers) != 2 || res3.Answers[0].Cached {
		t.Fatalf("post-mutation round must re-scan: %+v", res3.Answers)
	}
	if got := c.nodes[1].Stats().AgentsExecuted; got != 2 {
		t.Fatalf("peer executed %d agents, want 2", got)
	}
}

func TestSelectiveRoutingLearnsProvider(t *testing.T) {
	// Star with the base at the hub; only node 3 holds the needle. After
	// one observed flood the index routes the repeat query to node 3
	// alone, so nodes 1 and 2 never see a second agent.
	c := newCluster(t, 4, qrEnabled(0), func(i int, s *storm.Store) {
		if i == 3 {
			s.Put(&storm.Object{Name: "the-needle", Keywords: []string{"needle"}})
		}
	})
	c.wire(topology.Star(4))
	opts := QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 1}

	if _, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "needle"}, opts); err != nil {
		t.Fatal(err)
	}
	// Query returns on the needle's answer; the flood's agents at the idle
	// peers may still be in flight, and must land before the baseline.
	waitUntil(t, "the flood to reach both idle peers", func() bool {
		return c.nodes[1].Stats().AgentsExecuted+c.nodes[2].Stats().AgentsExecuted == 2
	})
	idleExecs := c.nodes[1].Stats().AgentsExecuted + c.nodes[2].Stats().AgentsExecuted

	// Bump the base's epoch so the repeat query misses the answer cache
	// and exercises the routing plan instead.
	if _, err := c.nodes[0].store.Put(&storm.Object{Name: "unrelated"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "needle"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || len(res.Answers) != 1 || res.Answers[0].Result.Name != "the-needle" {
		t.Fatalf("selective query must still find the needle: %+v", res)
	}
	if got := c.nodes[1].Stats().AgentsExecuted + c.nodes[2].Stats().AgentsExecuted; got != idleExecs {
		t.Fatalf("selective route must skip idle peers: execs %d -> %d", idleExecs, got)
	}
	if s := c.nodes[0].CacheStats(); s.Selective != 1 {
		t.Fatalf("stats = %+v, want one selective route", s)
	}
}
