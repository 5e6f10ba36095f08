package bench

import (
	"testing"

	"bestpeer/internal/obs"
	"bestpeer/internal/observatory"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
)

// TestConvergenceShape asserts the paper's qualitative claim on the
// event-journal timeline: under BPR (MaxCount) the mean answer-hop
// distance decreases across successive repeats of the same query, while
// under BPS (Static) it stays exactly flat.
func TestConvergenceShape(t *testing.T) {
	timelines := convergence(DefaultCost(), 42)
	if len(timelines) != 2 {
		t.Fatalf("Convergence returned %d timelines, want BPR and BPS", len(timelines))
	}
	var bpr, bps *strategyTimeline
	for _, st := range timelines {
		if st.Strategy == "static" {
			bps = st
		} else {
			bpr = st
		}
	}
	if bpr == nil || bps == nil {
		t.Fatalf("missing a strategy: %+v", timelines)
	}
	if len(bpr.Rounds) != convergenceRounds || len(bps.Rounds) != convergenceRounds {
		t.Fatalf("rounds = %d/%d, want %d each", len(bpr.Rounds), len(bps.Rounds), convergenceRounds)
	}

	bprHops, bpsHops := bpr.MeanHops(), bps.MeanHops()
	// BPR: later rounds answer from strictly nearer peers than round 1,
	// and the final round is no farther than any intermediate one.
	if bprHops[len(bprHops)-1] >= bprHops[0] {
		t.Fatalf("BPR mean answer hops did not decrease: %v", bprHops)
	}
	for i := 1; i < len(bprHops); i++ {
		if bprHops[i] > bprHops[0] {
			t.Fatalf("BPR round %d regressed past round 1: %v", i+1, bprHops)
		}
	}
	// BPS: a static overlay on a deterministic simulator answers from
	// exactly the same distances every round.
	for i := 1; i < len(bpsHops); i++ {
		if bpsHops[i] != bpsHops[0] {
			t.Fatalf("BPS mean answer hops moved: %v", bpsHops)
		}
	}

	// The first BPR reconfiguration must have promoted peers, and the
	// rationale must be journalled (scores present, promoted peers
	// marked selected).
	r0 := bpr.Rounds[0]
	if len(r0.PeersAdded) == 0 || r0.EditDistance != len(r0.PeersAdded)+len(r0.PeersDropped) {
		t.Fatalf("BPR round 1 recorded no overlay edits: %+v", r0)
	}
	if len(r0.Scores) == 0 {
		t.Fatal("BPR round 1 has no reconfiguration rationale")
	}
	selected := make(map[string]bool)
	for _, sc := range r0.Scores {
		if sc.Selected {
			selected[sc.Addr] = true
		}
	}
	for _, added := range r0.PeersAdded {
		if !selected[added] {
			t.Fatalf("promoted peer %s not marked selected in rationale %+v", added, r0.Scores)
		}
	}
	// BPS must never edit the overlay.
	for i, r := range bps.Rounds {
		if r.EditDistance != 0 {
			t.Fatalf("BPS round %d edited the overlay: %+v", i+1, r)
		}
	}
}

// TestConvergenceEventPipeline checks the timeline really flows through
// the obs event pipeline: a journalled BPR run emits the full query
// lifecycle and the timeline folds from those events alone.
func TestConvergenceEventPipeline(t *testing.T) {
	tp := topology.Random(32, 4, 7)
	spec := fig8Spec(tp, 7)
	p := params{Cost: DefaultCost(), Spec: spec, Query: "needle", MaxPeers: 8}
	journal := obs.NewJournal("sim-base", 4096)
	runBestPeerObserved(tp, p, 2, reconfig.MaxCount{}, journal)

	events, _, missed := journal.Since(0, 0)
	if missed != 0 {
		t.Fatalf("journal overflowed: missed %d", missed)
	}
	counts := map[obs.EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
		if e.Node != "sim-base" {
			t.Fatalf("event not stamped with the journal's node: %+v", e)
		}
	}
	if counts[obs.EvQueryIssued] != 2 || counts[obs.EvQueryCompleted] != 2 {
		t.Fatalf("query lifecycle incomplete: %v", counts)
	}
	if counts[obs.EvAgentAnswered] == 0 || counts[obs.EvReconfigured] == 0 {
		t.Fatalf("missing answered/reconfigured events: %v", counts)
	}
	rounds := observatory.Timeline(events)
	if len(rounds) != 2 {
		t.Fatalf("timeline folded %d rounds from 2 queries", len(rounds))
	}
	if rounds[0].Answers == 0 || rounds[0].MeanAnswerHops <= 0 {
		t.Fatalf("round 1 empty: %+v", rounds[0])
	}
	// A nil journal must be a no-op, not a panic.
	runBestPeerObserved(tp, p, 1, reconfig.MaxCount{}, nil)
}
