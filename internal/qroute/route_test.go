package qroute

import (
	"fmt"
	"testing"
	"time"
)

// noExplore builds an index with exploration disabled so selection is
// deterministic.
func noExplore(opt RouteOptions) *RoutingIndex {
	opt.Epsilon = -1
	return NewRoutingIndex(opt)
}

func TestSelectFloodsWithoutHistory(t *testing.T) {
	x := noExplore(RouteOptions{})
	nbs := []string{"a", "b", "c"}
	p := x.Select([]string{"jazz"}, nbs, 7, t0)
	if p.Selective || p.Explored || len(p.Targets) != 3 || p.TTL != 7 {
		t.Fatalf("cold index must flood at full TTL: %+v", p)
	}
}

func TestSelectTopFAfterObservations(t *testing.T) {
	x := noExplore(RouteOptions{TopF: 2, MinScore: 1})
	nbs := []string{"a", "b", "c", "d"}
	// b produced the most answers, then a; c a little; d never.
	x.Observe([]string{"jazz"}, "b", 5, 3, t0)
	x.Observe([]string{"jazz"}, "a", 3, 2, t0)
	x.Observe([]string{"jazz"}, "c", 1, 4, t0)
	p := x.Select([]string{"jazz"}, nbs, 7, t0.Add(time.Second))
	if !p.Selective {
		t.Fatalf("confident index must go selective: %+v", p)
	}
	if len(p.Targets) != 2 || p.Targets[0] != "b" || p.Targets[1] != "a" {
		t.Fatalf("want top-2 [b a], got %v", p.Targets)
	}
	// TTL scoped to deepest observed answer (4) plus one hop of slack.
	if p.TTL != 5 {
		t.Fatalf("want scoped TTL 5, got %d", p.TTL)
	}
	// A different term has no history: flood.
	if p := x.Select([]string{"blues"}, nbs, 7, t0); p.Selective {
		t.Fatal("unknown term must flood")
	}
}

func TestSelectConfidenceDecays(t *testing.T) {
	x := noExplore(RouteOptions{MinScore: 2})
	nbs := []string{"a", "b"}
	x.Observe([]string{"jazz"}, "a", 4, 2, t0)
	if p := x.Select([]string{"jazz"}, nbs, 7, t0.Add(time.Second)); !p.Selective {
		t.Fatal("fresh history must be confident")
	}
	// After many half-lives the score sinks under MinScore: flood again.
	if p := x.Select([]string{"jazz"}, nbs, 7, t0.Add(10*halfLife)); p.Selective {
		t.Fatal("decayed history must fall back to flood")
	}
}

func TestSelectEpsilonExploration(t *testing.T) {
	x := NewRoutingIndex(RouteOptions{Epsilon: 1.0}) // always explore
	x.Observe([]string{"jazz"}, "a", 10, 2, t0)
	p := x.Select([]string{"jazz"}, []string{"a", "b"}, 7, t0.Add(time.Second))
	if p.Selective || !p.Explored {
		t.Fatalf("epsilon=1 must always explore: %+v", p)
	}
	if len(p.Targets) != 2 || p.TTL != 7 {
		t.Fatal("exploration must be a full flood at full TTL")
	}
}

func TestObserveIgnoresUnattributed(t *testing.T) {
	x := noExplore(RouteOptions{})
	x.Observe([]string{"jazz"}, "", 5, 2, t0) // no via: nothing to credit
	x.Observe(nil, "a", 5, 2, t0)             // no terms
	x.Observe([]string{"jazz"}, "a", 0, 2, t0)
	if x.Terms() != 0 {
		t.Fatalf("unattributed observations must not create terms, have %d", x.Terms())
	}
}

func TestTermCapEvictsOldest(t *testing.T) {
	x := noExplore(RouteOptions{MinScore: 0.1})
	for i := 0; i <= maxTerms; i++ {
		x.Observe([]string{fmt.Sprintf("t%d", i)}, "a", 1, 1, t0.Add(time.Duration(i)*time.Millisecond))
	}
	if x.Terms() != maxTerms {
		t.Fatalf("index must hold maxTerms entries, have %d", x.Terms())
	}
	// t0 (oldest) was evicted: it floods; the newest is still known.
	end := t0.Add(time.Second)
	if p := x.Select([]string{"t0"}, []string{"a", "b"}, 7, end); p.Selective {
		t.Fatal("evicted term must flood")
	}
	if p := x.Select([]string{fmt.Sprintf("t%d", maxTerms)}, []string{"a", "b"}, 7, end); !p.Selective {
		t.Fatal("retained term must stay selective")
	}
}

func TestSelectIgnoresDepartedNeighbors(t *testing.T) {
	x := noExplore(RouteOptions{TopF: 2})
	x.Observe([]string{"jazz"}, "gone", 9, 2, t0)
	// The only scored neighbor left the peer set: candidates carry no
	// score, so the plan floods the live neighbors.
	p := x.Select([]string{"jazz"}, []string{"x", "y"}, 7, t0.Add(time.Second))
	if p.Selective || len(p.Targets) != 2 {
		t.Fatalf("want flood over live neighbors, got %+v", p)
	}
}
