package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/topology"
	"bestpeer/internal/wire"
)

// lateResult is an answer batch of n 1 KB objects for a query this node
// is not (or no longer) running.
func lateResult(n int) *wire.Envelope {
	rng := rand.New(rand.NewSource(int64(n)))
	results := make([]agent.Result, n)
	for i := range results {
		data := make([]byte, 1024)
		rng.Read(data)
		results[i] = agent.Result{Name: fmt.Sprintf("late-%04d", i), Data: data}
	}
	return &wire.Envelope{
		Kind: wire.KindResult, ID: wire.NewMsgID(), TTL: 1, From: "peer:1", To: "node-0",
		Body: agent.EncodeResults(results, 2, wire.BPID{}, "peer:1"),
	}
}

// TestLateAnswerDecodesNothing: an answer that arrives after its query
// finished costs a lookup — a small constant number of allocations that
// does not grow with the batch — not a decode of every result in it.
func TestLateAnswerDecodesNothing(t *testing.T) {
	n := newCluster(t, 1, nil, nil).nodes[0]
	small, large := lateResult(1), lateResult(100)
	allocs := func(env *wire.Envelope) float64 {
		return testing.AllocsPerRun(100, func() { n.handleResult(env, false) })
	}
	a1, a100 := allocs(small), allocs(large)
	if a1 != a100 || a100 > 2 {
		t.Fatalf("a late batch of 1 result costs %v allocs, of 100 results %v: want equal and at most 2", a1, a100)
	}
}

// TestLateUnparsableAnswerIsDropped: a late envelope whose body does not
// parse is dropped like any other late answer, and neither it nor a late
// well-formed batch touches the state of a query that is running.
func TestLateUnparsableAnswerIsDropped(t *testing.T) {
	n := newCluster(t, 1, nil, nil).nodes[0]
	live := newQueryState(0)
	liveID := wire.NewMsgID()
	n.queries.Store(liveID, live)
	defer n.queries.Delete(liveID)

	garbage := lateResult(3)
	garbage.Body = garbage.Body[:len(garbage.Body)/2]
	if _, err := agent.DecodeResults(garbage.Body); err == nil {
		t.Fatal("fixture: the truncated batch parses")
	}
	before := len(events(n))
	n.handle(garbage)
	n.handle(lateResult(3))
	garbage.ID = liveID // the same bytes for the live query: refused by the decoder
	n.handle(garbage)

	closed := live.closed // before collect, which closes it
	answers, hints := live.collect()
	if len(answers)+len(hints) != 0 || closed {
		t.Fatalf("dropped answers reached the live query: %d answers, %d hints, closed %v", len(answers), len(hints), closed)
	}
	for _, ev := range events(n)[before:] {
		if ev.Kind == obs.EvAgentAnswered {
			t.Fatalf("a dropped answer was journalled: %+v", ev)
		}
	}
}

// TestRetainedAnswersSurviveLaterFrames: an Answer's data is a view of the
// frame it arrived in. Answers kept after Query returns — the caller's and
// the copies the base cache serves — must stay intact while later frames
// arrive and are decoded, with readers going over them all the while. Run
// under -race: a buffer shared with anything that is written again (a
// pooled gzip buffer, a reader's window) shows as a race or a changed CRC.
func TestRetainedAnswersSurviveLaterFrames(t *testing.T) {
	const nodes, perNode, topics = 4, 5, 6
	sum := make(map[string]uint32)
	c := newCluster(t, nodes, qrEnabled(0), func(i int, s *storm.Store) {
		rng := rand.New(rand.NewSource(int64(i)))
		for k := 0; k < topics; k++ {
			for j := 0; j < perNode; j++ {
				o := &storm.Object{Name: fmt.Sprintf("n%d-t%d-%d", i, k, j), Keywords: []string{fmt.Sprintf("topic%d", k)}, Data: make([]byte, 1024)}
				if k%2 == 1 {
					o.Data = bytes.Repeat([]byte(o.Name+" "), 90) // text: these frames travel deflated
				} else {
					rng.Read(o.Data)
				}
				sum[o.Name] = crc32.ChecksumIEEE(o.Data)
				s.Put(o)
			}
		}
	})
	c.wire(topology.Star(nodes))

	var mu sync.Mutex
	var kept []Answer
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				held := append([]Answer(nil), kept...)
				mu.Unlock()
				for _, a := range held {
					if crc32.ChecksumIEEE(a.Result.Data) != sum[a.Result.Name] {
						t.Errorf("retained answer %s changed while later frames arrived", a.Result.Name)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Each topic is flooded once (its frames are the "later frames" of
	// every topic before it) and asked again at once and after all the
	// floods, which the base cache answers from the copies it kept.
	ask := func(k int, cached bool) {
		t.Helper()
		res, err := c.nodes[0].Query(&agent.KeywordAgent{Query: fmt.Sprintf("topic%d", k)},
			QueryOptions{Timeout: 3 * time.Second, WaitAnswers: nodes * perNode})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != nodes*perNode || res.Cached != cached {
			t.Fatalf("topic%d: %d answers (want %d), cached %v (want %v)", k, len(res.Answers), nodes*perNode, res.Cached, cached)
		}
		for _, a := range res.Answers {
			// Remote answers are views of their frame; local ones are the
			// store's own copies.
			if a.PeerAddr != c.nodes[0].Addr() && cap(a.Result.Data) != len(a.Result.Data) {
				t.Fatalf("%s: data has len %d, cap %d", a.Result.Name, len(a.Result.Data), cap(a.Result.Data))
			}
		}
		mu.Lock()
		kept = append(kept, res.Answers...)
		mu.Unlock()
	}
	for k := 0; k < topics; k++ {
		ask(k, false)
		ask(k, true)
	}
	for k := 0; k < topics; k++ {
		ask(k, true)
	}
	close(stop)
	readers.Wait()
	for _, a := range kept {
		if crc32.ChecksumIEEE(a.Result.Data) != sum[a.Result.Name] {
			t.Fatalf("retained answer %s did not survive", a.Result.Name)
		}
	}
}
