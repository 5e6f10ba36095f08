package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
)

// TestConcurrentQueriesFromOneNode: distinct outstanding queries at the
// same base must not cross-contaminate answers.
func TestConcurrentQueriesFromOneNode(t *testing.T) {
	const kinds = 4
	c := newCluster(t, 5, static, func(i int, s *storm.Store) {
		for k := 0; k < kinds; k++ {
			s.Put(&storm.Object{
				Name:     fmt.Sprintf("n%d-k%d", i, k),
				Keywords: []string{fmt.Sprintf("topic%d", k)},
				Data:     []byte{byte(k)},
			})
		}
	})
	c.wire(topology.Star(5))

	var wg sync.WaitGroup
	errs := make(chan error, kinds)
	for k := 0; k < kinds; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: fmt.Sprintf("topic%d", k)},
				QueryOptions{Timeout: 3 * time.Second, WaitAnswers: 5})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Answers) != 5 {
				errs <- fmt.Errorf("topic%d: %d answers", k, len(res.Answers))
				return
			}
			for _, a := range res.Answers {
				want := fmt.Sprintf("k%d", k)
				if a.Result.Name[len(a.Result.Name)-2:] != want {
					errs <- fmt.Errorf("topic%d got foreign answer %s", k, a.Result.Name)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQueriesFromManyNodes: every node queries at once; each
// gets the full answer set.
func TestConcurrentQueriesFromManyNodes(t *testing.T) {
	const n = 6
	c := newCluster(t, n, func(i int, cfg *Config) { cfg.MaxPeers, cfg.Strategy = n, reconfig.Static{} }, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("shared-%d", i), Keywords: []string{"common"}})
	})
	c.wire(topology.Random(n, 2, 3))

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.nodes[i].Query(&agent.KeywordAgent{Query: "common"},
				QueryOptions{Timeout: 3 * time.Second, WaitAnswers: n})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Answers) != n {
				errs <- fmt.Errorf("node %d saw %d answers, want %d", i, len(res.Answers), n)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueriesDuringReconfiguration: reconfiguring while other queries are
// in flight never loses answers or deadlocks.
func TestQueriesDuringReconfiguration(t *testing.T) {
	const n = 5
	c := newCluster(t, n, func(i int, cfg *Config) { cfg.MaxPeers = 3 }, func(i int, s *storm.Store) {
		s.Put(&storm.Object{Name: fmt.Sprintf("r-%d", i), Keywords: []string{"r"}})
	})
	c.wire(topology.Line(n))

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: "r"},
				QueryOptions{Timeout: 3 * time.Second, WaitAnswers: n})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Answers) < n {
				errs <- fmt.Errorf("%d answers, want >= %d", len(res.Answers), n)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The node stayed within its budget and kept valid peers.
	if got := len(c.nodes[0].Peers()); got > 3 {
		t.Fatalf("peer budget exceeded: %d", got)
	}
}
