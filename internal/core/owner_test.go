package core

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
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

// The owner classes of the fleet below, besides the plain level filter.
const (
	// ownerGate is a level filter that also refuses requesters under
	// level 5 the whole object.
	ownerGate = "gate-5"
	// ownerStamp appends a line to the object's data.
	ownerStamp = "stamp"
)

// stampNode is an owner class that renders an object as its data with a
// line appended — appended to the Data slice it is handed, as a class may
// do with an object that is its own. So a matcher that hands out a view
// with room behind it (a shared buffer not clipped to the object) has the
// stamp written over whatever follows, and that shows as foreign bytes in
// another answer.
type stampNode struct{}

func (stampNode) Name() string { return ownerStamp }

func (stampNode) Render(obj *storm.Object, _ int) ([]byte, bool) {
	return append(obj.Data, "\n-- shared by its owner"...), true
}

// ownerActiveSet holds the owner classes every node of the fleet runs:
// line-granular levels, the same behind a whole-object gate, and the
// stamp.
func ownerActiveSet() *agent.ActiveSet {
	s := agent.NewActiveSet()
	s.Add(&agent.LevelFilter{})
	s.Add(&agent.LevelFilter{FilterName: ownerGate, MinLevel: 5})
	s.Add(stampNode{})
	return s
}

// ownerObjects is node's object set: workload.Spec's objects, of which
// one in four stays static, one in four is stamped, and the other half is
// made level-filtered — their bytes hex-encoded into lines, each marked
// with a level the seed picks, and guarded by one of the two level
// classes. The same function is the test's oracle.
func ownerObjects(spec *workload.Spec, node int) []*storm.Object {
	objs := spec.Objects(node)
	rng := rand.New(rand.NewSource(spec.Seed + int64(node)))
	for i, o := range objs {
		switch i % 4 {
		case 0:
			continue // static: the spec's bytes pass through
		case 3:
			o.Kind, o.ActiveClass = storm.ActiveObject, ownerStamp
			continue
		}
		o.Kind = storm.ActiveObject
		o.ActiveClass = "level-filter"
		if i%4 == 2 {
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
	case *agent.DigestAgent:
		return obj.Keywords[0] == a.Query
	case *agent.FilterAgent:
		return a.Expr == "keyword="+obj.Keywords[0]+" & kind=active" && obj.Kind == storm.ActiveObject
	}
	return false
}

// answerSet is the set of object names a query must answer at level over
// the fleet's holdings (held[i] is node i's object set, every node in
// reach): every object the query selects and its owner lets the level
// see — for top-k, each node's k largest renders, ties by name, as
// TopKAgent ranks them.
func answerSet(ag agent.Agent, level int, held [][]*storm.Object, owners *agent.ActiveSet) map[string]bool {
	want := make(map[string]bool)
	for _, objs := range held {
		type ranked struct {
			name string
			size int
		}
		var visible []ranked
		for _, o := range objs {
			if !selects(ag, o) {
				continue
			}
			if data, ok := owners.RenderObject(o, level); ok {
				visible = append(visible, ranked{o.Name, len(data)})
			}
		}
		if k, ok := ag.(*agent.TopKAgent); ok {
			sort.Slice(visible, func(i, j int) bool {
				if visible[i].size != visible[j].size {
					return visible[i].size > visible[j].size
				}
				return visible[i].name < visible[j].name
			})
			visible = visible[:min(k.K, len(visible))]
		}
		for _, v := range visible {
			want[v.name] = true
		}
	}
	return want
}

// ownerFleet starts one node per level over an in-process network, each
// holding ownerObjects and peered with every other, with qr as its qroute
// options. It returns the nodes and their holdings.
func ownerFleet(t *testing.T, spec *workload.Spec, levels []int, qr qroute.Options) ([]*Node, [][]*storm.Object) {
	nw := transport.NewInProc()
	var (
		nodes []*Node
		held  [][]*storm.Object
	)
	for i, level := range levels {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		objs := ownerObjects(spec, i)
		for _, o := range objs {
			if _, err := st.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		held = append(held, objs)
		node, err := NewNode(Config{
			Network: nw, ListenAddr: fmt.Sprintf("owner-%d", i), Store: st,
			MaxPeers: len(levels), Strategy: reconfig.Static{}, AccessLevel: level,
			ActiveNodes: ownerActiveSet(), QRoute: qr,
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
	return nodes, held
}

// TestOwnerBytesOnEveryPath is the owner's filter as a property over
// every path that returns object bytes: requesters of three access
// levels, two nodes at each, query one fleet at once with keyword,
// filter, top-k and digest agents, in mode 1 and in mode 2 (hint, then
// Fetch). Every answer delivered must be what the owner's class renders
// at the requester's own level (for a digest in mode 1, the digest of
// that) — and an object the class refuses must not arrive at all.
// Concurrent requesters also make the executing nodes match and encode
// several result batches at once, so a buffer reused before its bytes
// were sent shows up here as foreign bytes.
//
// The fleet runs twice. With the base and serve-site answer caches on,
// queries are repeated so both serve. With qroute off, every query floods
// the whole fleet, so each requester's answer set must also equal the
// oracle's: a refused object that is missing, or an answer lost on the
// way, fails there.
func TestOwnerBytesOnEveryPath(t *testing.T) {
	spec := &workload.Spec{ObjectsPerNode: 24, ObjectSize: 512, Vocabulary: 3, Seed: 11}
	levels := []int{0, 4, 9, 0, 4, 9}
	// The queries the requesters draw from: few enough that repeats hit
	// the caches, each a shape of one of the four agent classes.
	var queries []agent.Agent
	for k := 0; k < spec.Vocabulary; k++ {
		kw := spec.Keyword(k)
		queries = append(queries,
			&agent.KeywordAgent{Query: kw},
			&agent.FilterAgent{Expr: "keyword=" + kw + " & kind=active", IncludeData: true},
			&agent.TopKAgent{Query: kw, K: 3, IncludeData: true},
			&agent.DigestAgent{Query: kw},
		)
	}
	t.Run("caches", func(t *testing.T) {
		c := runOwnerFleet(t, spec, levels, queries, qroute.Options{Enable: true})
		if c.remote < 100 || c.cached == 0 || c.fetched < 100 || c.refused == 0 {
			t.Fatalf("the run did not cover every path: %d remote, %d cached, %d remotely fetched answers, %d refused objects",
				c.remote, c.cached, c.fetched, c.refused)
		}
	})
	t.Run("routing-off", func(t *testing.T) {
		c := runOwnerFleet(t, spec, levels, queries, qroute.Options{})
		if c.remote < 100 || c.fetched < 100 || c.refused == 0 {
			t.Fatalf("the run did not cover every path: %d remote, %d remotely fetched answers, %d refused objects",
				c.remote, c.fetched, c.refused)
		}
	})
}

// ownerCounts is what one run of runOwnerFleet checked.
type ownerCounts struct {
	checked, remote, cached, fetched, refused int
}

// runOwnerFleet starts ownerFleet with qr and has two requesters per node
// run a random mix of queries against it, checking every answer and hint
// against the oracle. With qroute off (no cache, no selective route) each
// query's answer set must also equal answerSet, and the query returns as
// soon as that many answers are in.
func runOwnerFleet(t *testing.T, spec *workload.Spec, levels []int, queries []agent.Agent, qr qroute.Options) ownerCounts {
	nodes, held := ownerFleet(t, spec, levels, qr)
	oracle := make(map[string]*storm.Object)
	for _, objs := range held {
		for _, o := range objs {
			oracle[o.Name] = o
		}
	}
	complete := !qr.Enable
	oracleSet := ownerActiveSet()
	var (
		mu sync.Mutex
		c  ownerCounts
	)
	// check holds one delivered answer to the oracle at level: an object
	// the query selects, delivered once, as its owner renders it.
	check := func(level int, ag agent.Agent, mode2 bool, a Answer, node *Node, seen map[string]bool) error {
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
		if _, ok := ag.(*agent.DigestAgent); ok && !mode2 {
			want = []byte(fmt.Sprintf("%s %d %08x", obj.Name, len(want), crc32.ChecksumIEEE(want)))
		}
		if string(a.Result.Data) != string(want) {
			return fmt.Errorf("level %d got %d bytes for %q from %s (cached %v), owner renders %d: %.40q",
				level, len(a.Result.Data), obj.Name, a.PeerAddr, a.Cached, len(want), a.Result.Data)
		}
		mu.Lock()
		defer mu.Unlock()
		c.checked++
		if a.PeerAddr != node.Addr() {
			c.remote++
		}
		if a.Cached {
			c.cached++
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
					var want map[string]bool
					if complete {
						want = answerSet(ag, level, held, oracleSet)
						opts.Timeout, opts.WaitAnswers = 5*time.Second, len(want)
					}
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
						if err := check(level, ag, mode2, a, node, seen); err != nil {
							t.Error(err)
							return
						}
					}
					if complete && (!maps.Equal(seen, want) || mode2 && !maps.Equal(hinted, want)) {
						t.Errorf("level %d, %s %+v (mode 2 %v): answered %v, hinted %v; the fleet holds %v for it",
							level, ag.Class(), ag, mode2, seen, hinted, want)
						return
					}
					if mode2 {
						mu.Lock()
						for _, a := range res.Answers {
							if a.PeerAddr != node.Addr() {
								c.fetched++ // a remote peer's Fetch reply, not a local read
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
		t.FailNow()
	}

	// Objects the gate refuses every level under 5: the fleet must hold
	// some, or the refusal checks above test nothing.
	for _, o := range oracle {
		if _, ok := oracleSet.RenderObject(o, 4); !ok {
			c.refused++
		}
	}
	t.Logf("%d answers checked: %d remote, %d cached, %d fetched from remote peers; %d objects refused under level 5",
		c.checked, c.remote, c.cached, c.fetched, c.refused)
	return c
}
