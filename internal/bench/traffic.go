package bench

import (
	"bestpeer/internal/qroute"
	"bestpeer/internal/topology"
)

// trafficRound is one query round of the traffic experiment.
type trafficRound struct {
	Round int `json:"round"`
	// Route is how the round's fan-out was planned: "flood",
	// "selective", "explore" or "cached" (zero-message answer-cache hit).
	Route string `json:"route"`
	// Msgs counts messages handed to the network during the round.
	Msgs uint64 `json:"msgs"`
	// Bytes counts delivered payload bytes.
	Bytes uint64 `json:"bytes"`
	// Answers is the round's recall (total answers at the base).
	Answers int `json:"answers"`
}

// trafficResult compares the same repeated needle query with and without
// the qroute subsystem at the base.
type trafficResult struct {
	// Expected is the ground-truth match count reachable from the base.
	Expected int `json:"expected"`
	// Flood and QRoute are the per-round outcomes of the two schemes.
	Flood  []trafficRound `json:"flood"`
	QRoute []trafficRound `json:"qroute"`
	// FloodMsgs and QRouteMsgs total the messages sent across all rounds.
	FloodMsgs  uint64 `json:"flood_msgs"`
	QRouteMsgs uint64 `json:"qroute_msgs"`
}

// trafficRounds is the experiment length: round 1 warms the cache and
// routing index, rounds 3 and 5 follow a store mutation (cache miss,
// learned selective route), rounds 2/4/6 repeat an unchanged query
// (answer-cache hit).
const trafficRounds = 6

// trafficQRoute is the deterministic qroute configuration the experiment
// runs with: no ε-exploration (reproducible message counts), a top-4
// fan-out because the Fig-8 workload plants four answer holders — each
// may enter through a distinct base neighbor — and a confidence floor
// low enough that one observed round counts.
func trafficQRoute(seed int64) qroute.Options {
	return qroute.Options{
		Enable: true,
		Route: qroute.RouteOptions{
			Epsilon:  -1,
			TopF:     4,
			MinScore: 0.5,
			Seed:     seed,
		},
	}
}

// traffic measures the traffic-reduction claim: the Fig-8 needle
// workload on a 32-node random overlay, repeated for six rounds under a
// static strategy, once flooding every round and once with the answer
// cache + learned selective routing at the base. The base's store
// mutates before rounds 3 and 5, invalidating the cache mid-run, so the
// qroute scheme must re-prove recall through selective routes — not just
// replay one warm cache entry.
func traffic(cost CostModel, seed int64) *trafficResult {
	const n = 32
	tp := topology.Random(n, 4, seed)
	spec := fig8Spec(tp, seed)
	p := params{
		Cost: cost, Spec: spec, Query: "needle",
		MaxPeers: 8, IncludeData: false,
	}
	out := &trafficResult{
		Expected: expectedAnswers(tp, spec, p.Query, p.withDefaults().TTL),
	}
	run := func(p params) []trafficRound {
		b := newBPSim(tp, p)
		b.strategyName = "static"
		rounds := make([]trafficRound, 0, trafficRounds)
		for r := 1; r <= trafficRounds; r++ {
			if r == 3 || r == 5 {
				// A store mutation at the base retires every cached
				// answer (no-op for the flood run's nil engine).
				b.qr.BumpEpoch()
			}
			res := b.runRound()
			rounds = append(rounds, trafficRound{
				Round: r, Route: res.Route, Msgs: res.MsgsSent,
				Bytes: res.Bytes, Answers: res.TotalAnswers,
			})
		}
		return rounds
	}
	out.Flood = run(p)
	pq := p
	pq.QRoute = trafficQRoute(seed)
	out.QRoute = run(pq)
	for i := range out.Flood {
		out.FloodMsgs += out.Flood[i].Msgs
		out.QRouteMsgs += out.QRoute[i].Msgs
	}
	return out
}

// figTraffic renders the Traffic experiment as a figure: messages sent
// per round, flood vs qroute.
func figTraffic(cost CostModel, seed int64) *figure {
	tr := traffic(cost, seed)
	fig := &figure{
		ID:     "T2",
		Title:  "Traffic: flood vs answer cache + selective routing (32 nodes, needle query)",
		XLabel: "round", YLabel: "messages sent",
		Series: []series{{Name: "flood"}, {Name: "qroute"}},
	}
	for i := range tr.Flood {
		fig.Series[0].Points = append(fig.Series[0].Points,
			point{float64(tr.Flood[i].Round), float64(tr.Flood[i].Msgs)})
		fig.Series[1].Points = append(fig.Series[1].Points,
			point{float64(tr.QRoute[i].Round), float64(tr.QRoute[i].Msgs)})
	}
	return fig
}
