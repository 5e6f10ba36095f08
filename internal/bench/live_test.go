package bench

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

// liveSpec is a miniature workload so the real storage engine stays fast.
func liveSpec() *workload.Spec {
	return &workload.Spec{
		ObjectsPerNode: 40,
		ObjectSize:     256,
		Vocabulary:     8,
		Seed:           11,
	}
}

// liveCounts are fleet-wide sums of counters that only ever grow.
type liveCounts struct {
	sent, executed, forwarded, duplicates uint64
	looped                                uint64 // duplicates the base itself dropped: clones that came back to it
}

func (lc *LiveCluster) counts() liveCounts {
	var c liveCounts
	for _, n := range lc.nodes {
		st := n.Stats() // reads executed before forwarded; settled relies on it
		c.sent += n.MessengerStats().Sent
		c.executed += st.AgentsExecuted
		c.forwarded += st.AgentsForwarded
		c.duplicates += st.DuplicatesDropped
		if n == lc.Base() {
			c.looped = st.DuplicatesDropped
		}
	}
	return c
}

// settled polls the fleet's counters until the round that began at
// `before`, fanned out to fanOut peers and has `reached` nodes to reach,
// obeys the flood's conservation law, and returns what the round cost:
//
//   - every reached node executes the agent once;
//   - every clone sent (the base's fan-out plus the forwards) is either the
//     first to reach its node or a duplicate: clones = reached + duplicates;
//   - every clone received is reported to the base in exactly one frame. A
//     node that executed with matches piggybacks its trace span on the
//     result; one without matches, and every duplicate drop, sends the span
//     alone (KindSpan); the base keeps its own: frames = clones + reached +
//     duplicates - looped.
//
// A node counts its forwards before its execution, so once every node has
// executed the clone count is final and the two other counters can only
// climb to their targets; passing one fails at once.
func settled(t *testing.T, what string, lc *LiveCluster, before liveCounts, fanOut, reached int) (got liveCounts, clones uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		now := lc.counts()
		got = liveCounts{
			sent:       now.sent - before.sent,
			executed:   now.executed - before.executed,
			forwarded:  now.forwarded - before.forwarded,
			duplicates: now.duplicates - before.duplicates,
			looped:     now.looped - before.looped,
		}
		if got.executed < uint64(reached) {
			continue
		}
		clones = uint64(fanOut) + got.forwarded
		wantDup := clones - uint64(reached)
		wantSent := clones + uint64(reached) + wantDup - got.looped
		if got.executed == uint64(reached) && got.duplicates == wantDup && got.sent == wantSent {
			return got, clones
		}
		if got.executed > uint64(reached) || got.duplicates > wantDup || got.sent > wantSent {
			break
		}
	}
	t.Fatalf("%s: %d clones to %d nodes never settled: %+v", what, clones, reached, got)
	return
}

func liveBase(t *testing.T, lc *LiveCluster) []int {
	t.Helper()
	var peers []int
	for _, addr := range lc.Base().PeerAddrs() {
		var i int
		if _, err := fmt.Sscanf(addr, "live-%d", &i); err != nil {
			t.Fatalf("peer address %q: %v", addr, err)
		}
		peers = append(peers, i)
	}
	sort.Ints(peers)
	return peers
}

// TestLiveMatchesSimCounts holds bpSim to the real node on what does not
// depend on time: answers, agents executed, answer hops, the base's
// neighbour set after every reconfiguration and, while the overlay has no
// cycle, every message.
//
// Once reconfiguration has closed cycles the message count does depend on
// time, in the live fleet only. A node clones the agent to every peer but
// the sender, so one that the base reaches over a new one-way link clones
// to all its neighbours if the direct copy arrives first, and to one fewer
// if a neighbour's copy beats it. The model's clock always lets the direct
// copy win; on two cores the other one won in about one cyclic round in 25,
// and in more than one in four under the race detector (the base's send
// workers start in no particular order, so a chain of forwards can outrun
// the base's own fan-out). So there the model is an upper bound, at most
// one clone per new link above the fleet, and what is asserted exactly is
// the conservation law in settled.
func TestLiveMatchesSimCounts(t *testing.T) {
	spec := liveSpec()
	query := spec.Keyword(3)
	p := Params{Cost: DefaultCost(), Spec: spec, Query: query, MaxPeers: 4, IncludeData: true}

	// sameMessages: on an acyclic overlay the fleet sends the model's
	// clones, and the model's messages plus one lone span per silent node.
	sameMessages := func(t *testing.T, what string, tp *topology.Topology, got liveCounts, clones uint64, model RunResult) {
		t.Helper()
		batches := uint64(len(model.Events))
		silent := uint64(tp.N-1) - batches
		if clones != model.MsgsSent-batches || got.duplicates != 0 || got.sent != model.MsgsSent+silent {
			t.Fatalf("%s: live %d clones, %+v; model %d messages in %d batches",
				what, clones, got, model.MsgsSent, batches)
		}
	}

	for _, tp := range []*topology.Topology{topology.Star(8), topology.Line(8), topology.Tree(15, 2)} {
		t.Run("static/"+tp.Name, func(t *testing.T) {
			model := RunBestPeer(tp, p, 1, reconfig.Static{})[0]
			// The live node cuts an initial peer list to its budget; the
			// model never shrinks a node below its degree.
			lc, err := NewLiveCluster(tp, spec, query, reconfig.Static{}, tp.N)
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			live, err := lc.RunRound(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if live.TotalAnswers != model.TotalAnswers {
				t.Fatalf("answers: live %d, model %d", live.TotalAnswers, model.TotalAnswers)
			}
			got, clones := settled(t, "round 1", lc, liveCounts{}, tp.Degree(tp.Base), tp.N-1)
			sameMessages(t, "round 1", tp, got, clones, model)
			if live.AgentsForwarded != got.forwarded {
				t.Fatalf("RunRound saw %d forwards of %d", live.AgentsForwarded, got.forwarded)
			}
			// One batch per answering node, at the same distance: the
			// base's hop histogram is cumulative over integer bounds.
			deepest := 0
			for _, e := range model.Events {
				deepest = max(deepest, e.Hops)
			}
			for _, b := range lc.Metrics().AnswerHops {
				within := uint64(0)
				for _, e := range model.Events {
					if float64(e.Hops) <= b.UpperBound {
						within++
					}
				}
				if b.Count != within {
					t.Fatalf("batches within %v hops: live %d, model %d", b.UpperBound, b.Count, within)
				}
			}
			if live.MaxHops != deepest {
				t.Fatalf("max hops: live %d, model %d", live.MaxHops, deepest)
			}
		})
	}

	for _, tp := range []*topology.Topology{topology.Line(8), topology.Tree(15, 2)} {
		for _, strategy := range []reconfig.Strategy{reconfig.MaxCount{}, reconfig.MinHops{}} {
			t.Run(strategy.Name()+"/"+tp.Name, func(t *testing.T) {
				sim := newBPSim(tp, p)
				lc, err := NewLiveCluster(tp, spec, query, strategy, p.MaxPeers)
				if err != nil {
					t.Fatal(err)
				}
				defer lc.Close()
				var first, last RunResult
				for round := 1; round <= 4; round++ {
					what := fmt.Sprintf("round %d", round)
					before, fanOut := lc.counts(), len(lc.Base().Peers())
					model := sim.runRound()
					live, err := lc.RunRound(5 * time.Second)
					if err != nil {
						t.Fatal(err)
					}
					if live.TotalAnswers != model.TotalAnswers {
						t.Fatalf("%s answers: live %d, model %d", what, live.TotalAnswers, model.TotalAnswers)
					}
					got, clones := settled(t, what, lc, before, fanOut, tp.N-1)
					if oneWay := uint64(fanOut - tp.Degree(tp.Base)); oneWay == 0 {
						sameMessages(t, what, tp, got, clones, model)
					} else if modelClones := model.MsgsSent - uint64(len(model.Events)); clones > modelClones || clones+oneWay < modelClones {
						t.Fatalf("%s: live %d clones, model %d over %d one-way links", what, clones, modelClones, oneWay)
					}

					sim.reconfigure(strategy, model)
					if peers := liveBase(t, lc); !reflect.DeepEqual(peers, sim.peers[tp.Base]) {
						t.Fatalf("%s: base neighbours live %v, model %v", what, peers, sim.peers[tp.Base])
					}
					if round == 1 {
						first = model
					}
					last = model
				}
				// The direction the paper claims: direct links to the
				// providers shorten the query, and the cycles they close
				// cost frames.
				if last.Completion >= first.Completion || last.MsgsSent <= first.MsgsSent {
					t.Fatalf("model did not improve: %v / %d msgs -> %v / %d msgs",
						first.Completion, first.MsgsSent, last.Completion, last.MsgsSent)
				}
				if len(sim.peers[tp.Base]) != p.MaxPeers {
					t.Fatalf("base has %d neighbours, want the budget of %d", len(sim.peers[tp.Base]), p.MaxPeers)
				}
			})
		}
	}
}

// TestLiveRoundWaitsOutTheFlood: the only holder is the base's neighbour,
// so the last answer is in while the agent still has six hops of the line
// to travel. The round must report all six forwards, and the six lone
// spans the silent nodes owe the base.
func TestLiveRoundWaitsOutTheFlood(t *testing.T) {
	spec := liveSpec()
	spec.PlantedKeyword, spec.Holders, spec.PlantedHits = "planted", []int{1}, 3
	lc, err := NewLiveCluster(topology.Line(8), spec, spec.PlantedKeyword, reconfig.Static{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	res, err := lc.RunRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAnswers != 3 || res.AgentsForwarded != 6 {
		t.Fatalf("answers %d, agents forwarded %d; want 3 and 6", res.TotalAnswers, res.AgentsForwarded)
	}
	if m := lc.Metrics(); m.MessagesSent != 7+1+6 {
		t.Fatalf("%d frames sent; want 7 agents, 1 result and 6 lone spans", m.MessagesSent)
	}
}

// TestLiveStaticNetworkStable: with the static strategy the peer set and
// answer totals are identical across rounds.
func TestLiveStaticNetworkStable(t *testing.T) {
	spec := liveSpec()
	query := spec.Keyword(1)
	tp := topology.Star(5)

	lc, err := NewLiveCluster(tp, spec, query, reconfig.Static{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	before := lc.Base().PeerAddrs()
	r1, err := lc.RunRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lc.RunRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	after := lc.Base().PeerAddrs()
	if len(before) != len(after) {
		t.Fatalf("static peer set changed: %v -> %v", before, after)
	}
	if r1.TotalAnswers != r2.TotalAnswers {
		t.Fatalf("static answers differ: %d vs %d", r1.TotalAnswers, r2.TotalAnswers)
	}
	// On a star every answer is one hop.
	if r1.MaxHops != 1 || r2.MaxHops != 1 {
		t.Fatalf("star hops = %d, %d; want 1", r1.MaxHops, r2.MaxHops)
	}
}
