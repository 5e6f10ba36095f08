package core

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/workload"
)

// ownerGate is the second owner class of the fleet below: a level filter
// that also refuses requesters under level 5 the whole object.
const ownerGate = "gate-5"

// ownerActiveSet holds the owner classes every node of the fleet runs:
// line-granular levels, and the same behind a whole-object gate.
func ownerActiveSet() *agent.ActiveSet {
	s := agent.NewActiveSet()
	s.Add(&agent.LevelFilter{})
	s.Add(&agent.LevelFilter{FilterName: ownerGate, MinLevel: 5})
	return s
}

// ownerObjects is node's object set: workload.Spec's objects, of which
// two in three are made active — their bytes hex-encoded into lines, each
// marked with a level the seed picks, and guarded by one of the two owner
// classes. The same function is the test's oracle.
func ownerObjects(spec *workload.Spec, node int) []*storm.Object {
	objs := spec.Objects(node)
	rng := rand.New(rand.NewSource(spec.Seed + int64(node)))
	for i, o := range objs {
		if i%3 == 0 {
			continue // static: the spec's bytes pass through
		}
		o.Kind = storm.ActiveObject
		o.ActiveClass = "level-filter"
		if i%3 == 2 {
			o.ActiveClass = ownerGate
		}
		var lines []byte
		for off := 0; off < len(o.Data); off += 64 {
			if off > 0 {
				lines = append(lines, '\n')
			}
			chunk := hex.EncodeToString(o.Data[off:min(off+64, len(o.Data))])
			lines = append(lines, agent.MarkLine(rng.Intn(10), chunk)...)
		}
		o.Data = lines
	}
	return objs
}

// selects reports whether the query selects obj: the agents of the test
// below match on the object's one keyword, the filter on active objects
// only.
func selects(ag agent.Agent, obj *storm.Object) bool {
	switch a := ag.(type) {
	case *agent.KeywordAgent:
		return obj.Keywords[0] == a.Query
	case *agent.TopKAgent:
		return obj.Keywords[0] == a.Query
	case *agent.FilterAgent:
		return a.Expr == "keyword="+obj.Keywords[0]+" & kind=active" && obj.Kind == storm.ActiveObject
	}
	return false
}

// TestOwnerBytesOnEveryPath is the owner's filter as a property over
// every path that returns object bytes: requesters of three access
// levels, two nodes at each, query one fleet at once with keyword, filter
// and top-k agents, in mode 1 and in mode 2 (hint, then Fetch), with the
// base and serve-site answer caches on and queries repeated so both
// serve. Every answer delivered must be what the owner's class renders at
// the requester's own level — and an object the class refuses must not
// arrive at all. Concurrent requesters also make the executing nodes
// encode several result batches at once, so a buffer reused before its
// bytes were sent shows up here as foreign bytes.
func TestOwnerBytesOnEveryPath(t *testing.T) {
	spec := &workload.Spec{ObjectsPerNode: 24, ObjectSize: 512, Vocabulary: 3, Seed: 11}
	levels := []int{0, 4, 9, 0, 4, 9}
	oracle := make(map[string]*storm.Object)
	nw := transport.NewInProc()
	var nodes []*Node
	for i, level := range levels {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ownerObjects(spec, i) {
			oracle[o.Name] = o
			if _, err := st.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		node, err := NewNode(Config{
			Network: nw, ListenAddr: fmt.Sprintf("owner-%d", i), Store: st,
			MaxPeers: len(levels), Strategy: reconfig.Static{}, AccessLevel: level,
			ActiveNodes: ownerActiveSet(), QRoute: qroute.Options{Enable: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		t.Cleanup(func() { node.Close(); st.Close() })
	}
	for _, n := range nodes {
		var peers []Peer
		for _, p := range nodes {
			if p != n {
				peers = append(peers, Peer{Addr: p.Addr()})
			}
		}
		n.SetPeers(peers)
	}

	// The queries the requesters draw from: few enough that repeats hit
	// the caches, each a shape of one of the three agent classes.
	var queries []agent.Agent
	for k := 0; k < spec.Vocabulary; k++ {
		kw := spec.Keyword(k)
		queries = append(queries,
			&agent.KeywordAgent{Query: kw},
			&agent.FilterAgent{Expr: "keyword=" + kw + " & kind=active", IncludeData: true},
			&agent.TopKAgent{Query: kw, K: 3, IncludeData: true},
		)
	}
	oracleSet := ownerActiveSet()
	var (
		mu                      sync.Mutex
		checked, remote, cached int
		fetched, refused        int
	)
	// check holds one delivered answer to the oracle at level: an object
	// the query selects, delivered once, as its owner renders it.
	check := func(level int, ag agent.Agent, a Answer, node *Node, seen map[string]bool) error {
		obj, ok := oracle[a.Result.Name]
		if !ok {
			return fmt.Errorf("unknown object %q from %s", a.Result.Name, a.PeerAddr)
		}
		if !selects(ag, obj) {
			return fmt.Errorf("level %d was sent %q from %s, which its query does not select", level, obj.Name, a.PeerAddr)
		}
		if seen[obj.Name] {
			return fmt.Errorf("level %d was sent %q twice", level, obj.Name)
		}
		seen[obj.Name] = true
		want, visible := oracleSet.RenderObject(obj, level)
		if !visible {
			return fmt.Errorf("level %d was sent %q (class %s), which its owner refuses it", level, obj.Name, obj.ActiveClass)
		}
		if f, ok := ag.(*agent.FilterAgent); ok && !f.IncludeData {
			want = nil
		}
		if string(a.Result.Data) != string(want) {
			return fmt.Errorf("level %d got %d bytes for %q from %s (cached %v), owner renders %d: %.40q",
				level, len(a.Result.Data), obj.Name, a.PeerAddr, a.Cached, len(want), a.Result.Data)
		}
		mu.Lock()
		defer mu.Unlock()
		checked++
		if a.PeerAddr != node.Addr() {
			remote++
		}
		if a.Cached {
			cached++
		}
		return nil
	}

	const perRequester = 12
	var wg sync.WaitGroup
	for i, node := range nodes {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i int, node *Node, rng *rand.Rand) {
				defer wg.Done()
				level := levels[i]
				for q := 0; q < perRequester; q++ {
					ag := queries[rng.Intn(len(queries))]
					opts := QueryOptions{Timeout: 300 * time.Millisecond, TTL: 2}
					var (
						res *QueryResult
						err error
					)
					mode2 := rng.Intn(3) == 0
					if mode2 {
						res, err = node.QueryAndFetch(ag, opts)
					} else {
						res, err = node.Query(ag, opts)
					}
					if err != nil {
						t.Error(err)
						return
					}
					hinted := make(map[string]bool)
					for _, h := range res.Hints {
						if obj := oracle[h.Result.Name]; obj == nil || !selects(ag, obj) || hinted[obj.Name] {
							t.Errorf("level %d was hinted %q by %s: unknown, not selected by its query, or twice", level, h.Result.Name, h.PeerAddr)
							return
						}
						hinted[h.Result.Name] = true
						if h.Result.Data != nil {
							t.Errorf("level %d: hint %q from %s carries %d bytes", level, h.Result.Name, h.PeerAddr, len(h.Result.Data))
							return
						}
						if _, ok := oracleSet.RenderObject(oracle[h.Result.Name], level); !ok {
							t.Errorf("level %d was hinted %q, which its owner refuses it", level, h.Result.Name)
							return
						}
					}
					seen := make(map[string]bool)
					for _, a := range res.Answers {
						if err := check(level, ag, a, node, seen); err != nil {
							t.Error(err)
							return
						}
					}
					if mode2 {
						mu.Lock()
						for _, a := range res.Answers {
							if a.PeerAddr != node.Addr() {
								fetched++ // a remote peer's Fetch reply, not a local read
							}
						}
						mu.Unlock()
					}
				}
			}(i, node, rand.New(rand.NewSource(int64(10*i+g))))
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Objects the gate refuses every level under 5: the fleet must hold
	// some, or the refusal checks above test nothing.
	for _, o := range oracle {
		if _, ok := oracleSet.RenderObject(o, 4); !ok {
			refused++
		}
	}
	t.Logf("%d answers checked: %d remote, %d cached, %d fetched from remote peers; %d objects refused under level 5",
		checked, remote, cached, fetched, refused)
	if remote < 100 || cached == 0 || fetched < 100 || refused == 0 {
		t.Fatalf("the run did not cover every path: %d remote, %d cached, %d remotely fetched answers, %d refused objects",
			remote, cached, fetched, refused)
	}
}
