package bench

import (
	"fmt"

	"bestpeer/internal/obs"
	"bestpeer/internal/observatory"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
)

// strategyTimeline is one strategy's convergence record: the per-round
// timeline folded from the journal the simulated base node emitted — the
// same event pipeline a live node feeds, so the bench proves the
// observability path, not just the simulator.
type strategyTimeline struct {
	Strategy string              `json:"strategy"`
	Rounds   []observatory.Round `json:"rounds"`
	// EventsJournalled is how many structured events the run emitted.
	EventsJournalled uint64 `json:"events_journalled"`
}

// MeanHops returns the per-round mean answer hops.
func (st *strategyTimeline) MeanHops() []float64 {
	return observatory.MeanHopsTrend(st.Rounds)
}

// convergenceRounds is how many successive repeats of the query the
// convergence experiment runs per strategy.
const convergenceRounds = 6

// convergence reproduces the paper's self-reconfiguration claim as a
// timeline: the same query repeated on a sparse random overlay with the
// answers planted at the nodes furthest from the base (the Fig. 8
// workload). Under BPR the answer providers are promoted to direct peers
// after the first round, so mean answer hops fall; under BPS the overlay
// never changes and the trend is flat. The timeline is folded from the
// base's event journal, not from simulator internals.
func convergence(cost CostModel, seed int64) []*strategyTimeline {
	const n, peerBudget = 32, 8
	tp := topology.Random(n, peerBudget/2, seed) // sparse start; budget allows growth
	spec := fig8Spec(tp, seed)
	p := params{
		Cost: cost, Spec: spec, Query: "needle",
		MaxPeers: peerBudget, IncludeData: false,
	}
	var out []*strategyTimeline
	for _, strat := range []reconfig.Strategy{reconfig.MaxCount{}, reconfig.Static{}} {
		// A capacity comfortably above the event volume: overflow here
		// would silently truncate the timeline's early rounds.
		journal := obs.NewJournal("sim-base", 16384)
		runBestPeerObserved(tp, p, convergenceRounds, strat, journal)
		events, _, missed := journal.Since(0, 0)
		if missed > 0 {
			// Should be impossible at this capacity; surface it in the
			// timeline rather than hiding a truncated record.
			events = append([]obs.Event{{Kind: obs.EvMessageDropped,
				Reason: fmt.Sprintf("journal overflow: %d events lost", missed)}}, events...)
		}
		out = append(out, &strategyTimeline{
			Strategy:         strat.Name(),
			Rounds:           observatory.Timeline(events),
			EventsJournalled: journal.Total(),
		})
	}
	return out
}

// figConvergence renders the convergence timelines as a figure: mean
// answer hops per round, one series per strategy (BPR = maxcount,
// BPS = static).
func figConvergence(cost CostModel, seed int64) *figure {
	fig := &figure{
		ID: "convergence", Title: "Reconfiguration convergence: mean answer hops per round (32 nodes, random)",
		XLabel: "round", YLabel: "mean answer hops",
	}
	for _, st := range convergence(cost, seed) {
		name := "BPR"
		if st.Strategy == "static" {
			name = "BPS"
		}
		s := series{Name: name}
		for i, m := range st.MeanHops() {
			s.Points = append(s.Points, point{float64(i + 1), m})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
