package bench

import (
	"reflect"
	"testing"

	"bestpeer/internal/topology"
)

// TestComparatorsClosedForm states what distinguishes the three
// path-routed comparators in closed form, on topologies small enough to
// count by hand. Every node is queried once, every answering node's batch
// crosses one link per hop of its depth, and only CS adds one
// subtree-completion marker per non-base node:
//
//	MsgsSent = (N-1) + Σ depth(answering node) + (N-1 for CS, 0 for Gnutella)
func TestComparatorsClosedForm(t *testing.T) {
	p := testParams(1)
	for _, tp := range []*topology.Topology{
		topology.Star(8), topology.Tree(15, 2), topology.Line(8),
	} {
		depth := tp.BFS(tp.Base)
		answerHops := 0
		for node, d := range depth {
			if node != tp.Base && p.Spec.MatchCount(node, p.Query) > 0 {
				answerHops += d
			}
		}
		if answerHops == 0 {
			t.Fatalf("%s: workload produced no matches", tp.Name)
		}
		want := expectedAnswers(tp, p.Spec, p.Query, 64)
		queries := uint64(tp.N - 1)
		markers := uint64(tp.N - 1)

		check := func(scheme string, res runResult, wantSent uint64) {
			t.Helper()
			if res.MsgsSent != wantSent || res.Msgs != wantSent {
				t.Errorf("%s %s: sent %d, delivered %d; want %d",
					tp.Name, scheme, res.MsgsSent, res.Msgs, wantSent)
			}
			if res.TotalAnswers != want {
				t.Errorf("%s %s: answers %d, want %d", tp.Name, scheme, res.TotalAnswers, want)
			}
			for _, e := range res.Events {
				if e.Hops != depth[e.Node] {
					t.Errorf("%s %s: node %d answered at hops %d, depth %d",
						tp.Name, scheme, e.Node, e.Hops, depth[e.Node])
				}
			}
		}
		scs, mcs := runCS(tp, p, true), runCS(tp, p, false)
		check("SCS", scs, queries+uint64(answerHops)+markers)
		check("MCS", mcs, queries+uint64(answerHops)+markers)
		if scs.Completion < mcs.Completion {
			t.Errorf("%s: SCS finished in %v, before MCS's %v", tp.Name, scs.Completion, mcs.Completion)
		}

		gnu := runGnutella(tp, p, 2)
		check("GNU", gnu[0], queries+uint64(answerHops))
		if !reflect.DeepEqual(gnu[0], gnu[1]) {
			t.Errorf("%s GNU: round 2 differs from round 1:\n%+v\n%+v", tp.Name, gnu[0], gnu[1])
		}
		// Gnutella hits are name lists whatever the caller asks for.
		names := p
		names.IncludeData = false
		if got := runGnutella(tp, names, 1)[0]; got.Bytes != gnu[0].Bytes {
			t.Errorf("%s GNU: %d bytes with data, %d names-only", tp.Name, gnu[0].Bytes, got.Bytes)
		}
		if mcs.Bytes <= gnu[0].Bytes {
			t.Errorf("%s: MCS with data moved %d bytes, no more than GNU's %d", tp.Name, mcs.Bytes, gnu[0].Bytes)
		}
	}
}
