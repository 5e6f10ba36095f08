package bench

import (
	"strconv"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/observatory"
)

// ChurnParams configures the churn-at-scale experiment: a mesh of Nodes
// hosts under continuous session churn plus one correlated failure
// burst, queried from a fixed set of bases while the overlay repairs
// itself. The defaults reproduce the committed BENCH figure (10k nodes);
// tests scale Nodes and Horizon down.
type ChurnParams struct {
	// Nodes is the fleet size; Degree the target direct-peer count.
	Nodes  int
	Degree int
	// Latency is the fixed per-hop mesh latency.
	Latency time.Duration
	// Horizon bounds the simulated run.
	Horizon time.Duration
	// MeanSession / MeanDowntime parameterize the exponential session
	// churn; GracefulFrac of session ends are announced leaves, the rest
	// crashes.
	MeanSession  time.Duration
	MeanDowntime time.Duration
	GracefulFrac float64
	// BurstAt / BurstFrac schedule the correlated failure burst.
	BurstAt   time.Duration
	BurstFrac float64
	// SampleEvery is the query-round cadence; CollectAfter is how long a
	// round waits for answers before closing (must exceed the answer
	// round trip and stay under SampleEvery).
	SampleEvery  time.Duration
	CollectAfter time.Duration
	// RepairEvery / ProbeTimeout drive the failure-detector repair loop
	// of the schemes that reconfigure; SweepEvery is the registry's lag
	// before it notices crashed (non-deregistered) members.
	RepairEvery  time.Duration
	ProbeTimeout time.Duration
	SweepEvery   time.Duration
	// Bases issue queries (node ids [0, Bases), excluded from churn);
	// Keywords are spread over HoldersPerKeyword holder nodes each.
	Bases             int
	Keywords          int
	HoldersPerKeyword int
	// TTL is the query hop budget.
	TTL int
}

// DefaultChurnParams is the committed-figure configuration: 10k nodes
// under churn that keeps ~25% of the fleet offline at steady state, with
// a 10% correlated failure burst mid-run.
func DefaultChurnParams() ChurnParams {
	return ChurnParams{
		Nodes: 10_000, Degree: 4, Latency: 10 * time.Millisecond,
		Horizon:     120 * time.Second,
		MeanSession: 60 * time.Second, MeanDowntime: 20 * time.Second,
		GracefulFrac: 0.5,
		BurstAt:      60 * time.Second, BurstFrac: 0.25,
		SampleEvery: 3 * time.Second, CollectAfter: time.Second,
		RepairEvery: 2 * time.Second, ProbeTimeout: 500 * time.Millisecond,
		SweepEvery: 5 * time.Second,
		Bases:      16, Keywords: 8, HoldersPerKeyword: 40,
		TTL: 9,
	}
}

// ChurnSample is one query round's aggregate view of the fleet.
type ChurnSample struct {
	Round int     `json:"round"`
	TMS   float64 `json:"t_ms"`
	// Alive is the live host count when the round's queries were issued.
	Alive int `json:"alive"`
	// Recall is mean (answers / alive holders) across the round's
	// queries, cache-served ones included.
	Recall float64 `json:"recall"`
	// MeanHops is the mean overlay depth of the round's network answers
	// (cache hits contribute no hop samples).
	MeanHops float64 `json:"mean_hops"`
	// Msgs is mesh messages sent between this round's issue and close,
	// query and maintenance traffic alike.
	Msgs uint64 `json:"msgs"`
	// CacheHitRate is the cumulative base answer-cache hit rate (zero
	// for schemes without an engine).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ChurnSchemeRun is one scheme's full run.
type ChurnSchemeRun struct {
	Scheme  string        `json:"scheme"`
	Samples []ChurnSample `json:"samples"`
	// MeanRecall averages every sample; FinalRecall is the last one.
	MeanRecall  float64 `json:"mean_recall"`
	FinalRecall float64 `json:"final_recall"`
	// PreBurstRecall is the mean recall before the burst;
	// PostBurstMinRecall the worst sample after it.
	PreBurstRecall     float64 `json:"pre_burst_recall"`
	PostBurstMinRecall float64 `json:"post_burst_min_recall"`
	// RepairConvergenceRounds counts query rounds from the burst until
	// recall is back within 2 points of the pre-burst mean (-1: never);
	// RepairConvergenceMS is the same gap in simulated time.
	RepairConvergenceRounds int     `json:"repair_convergence_rounds"`
	RepairConvergenceMS     float64 `json:"repair_convergence_ms"`
	// Msgs totals mesh messages across the run.
	Msgs uint64 `json:"msgs"`
	// Repairs counts edges backfilled by the repair loop; HintAdopts the
	// subset seeded by Depart replacement hints; DepartsDelivered the
	// graceful-leave notices received.
	Repairs          uint64 `json:"repairs"`
	HintAdopts       uint64 `json:"hint_adopts"`
	DepartsDelivered uint64 `json:"departs_delivered"`
	// CacheHits / CacheLookups total the bases' answer-cache traffic.
	CacheHits    uint64 `json:"cache_hits"`
	CacheLookups uint64 `json:"cache_lookups"`
	// Health is the run's derived-signal timeline and alert transitions,
	// recorded through the observatory health engine at simulated time.
	Health *HealthTimeline `json:"health,omitempty"`
}

// HealthPoint is one health-series sample on the simulated clock.
type HealthPoint struct {
	TMS float64 `json:"t_ms"`
	V   float64 `json:"v"`
}

// HealthAlert is one alert transition on the simulated clock.
type HealthAlert struct {
	TMS       float64 `json:"t_ms"`
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	Firing    bool    `json:"firing"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// HealthTimeline is one scheme's full health record: every derived
// series plus the rule transitions, straight from the observatory
// pipeline the live fleet uses.
type HealthTimeline struct {
	Series map[string][]HealthPoint `json:"series"`
	Alerts []HealthAlert            `json:"alerts"`
}

// AlertsFor returns the timeline's transitions for one rule, in order.
func (tl *HealthTimeline) AlertsFor(rule string) []HealthAlert {
	var out []HealthAlert
	for _, a := range tl.Alerts {
		if a.Rule == rule {
			out = append(out, a)
		}
	}
	return out
}

// churnHealthRules scales the bench rule set from the experiment's own
// parameters. The repair-surge threshold is anchored to the steady
// churn repair rate — nodes/MeanSession departures per second, each
// costing up to Degree backfilled edges — so only the correlated burst
// can cross it.
func churnHealthRules(p ChurnParams) []observatory.Rule {
	steady := float64(p.Nodes) / p.MeanSession.Seconds() * float64(p.Degree)
	return []observatory.Rule{
		{Name: "recall-floor", Series: "recall", Below: true,
			Fire: 0.93, Clear: 0.95},
		{Name: "repair-surge", Series: observatory.SigRepairAddedPerS,
			Fire: 1.5 * steady, Clear: steady, ClearHold: p.SampleEvery},
		{Name: "cache-hit-collapse", Series: observatory.SigCacheHitRate, Below: true,
			Fire: 0.05, Clear: 0.15, Hold: 2 * p.SampleEvery},
	}
}

// ChurnResult is the churn experiment's machine-readable output.
type ChurnResult struct {
	Nodes     int              `json:"nodes"`
	Degree    int              `json:"degree"`
	HorizonMS float64          `json:"horizon_ms"`
	BurstAtMS float64          `json:"burst_at_ms"`
	BurstFrac float64          `json:"burst_frac"`
	Schemes   []ChurnSchemeRun `json:"schemes"`
}

// SchemeByName returns the named scheme run, or nil.
func (r *ChurnResult) SchemeByName(name string) *ChurnSchemeRun {
	for i := range r.Schemes {
		if r.Schemes[i].Scheme == name {
			return &r.Schemes[i]
		}
	}
	return nil
}

// buildHealthTimeline folds the run's health engine back onto the
// simulated clock: every derived series the engine retained plus the
// alert transitions from its journal, timestamps relative to sim zero.
func buildHealthTimeline(h *observatory.Health, member string) *HealthTimeline {
	epoch := time.Unix(0, 0).UTC()
	tl := &HealthTimeline{Series: make(map[string][]HealthPoint)}
	ts := h.Series()
	for _, name := range ts.Names(member) {
		for _, p := range ts.Points(member, name) {
			tl.Series[name] = append(tl.Series[name],
				HealthPoint{TMS: ms(p.At.Sub(epoch)), V: p.V})
		}
	}
	events, _, _ := h.Journal().Since(0, 0)
	for _, e := range events {
		if e.Node != member {
			continue
		}
		tl.Alerts = append(tl.Alerts, HealthAlert{
			TMS: ms(e.At.Sub(epoch)), Rule: e.Reason, Series: e.Strategy,
			Firing: e.Kind == obs.EvAlertRaised, Value: e.Value, Threshold: e.Threshold,
		})
	}
	return tl
}

// finishChurnRun derives the summary statistics from the samples.
func finishChurnRun(run *ChurnSchemeRun, p ChurnParams) {
	if len(run.Samples) == 0 {
		run.RepairConvergenceRounds = -1
		return
	}
	burstMS := ms(p.BurstAt)
	var sum, preSum float64
	preN := 0
	for _, s := range run.Samples {
		sum += s.Recall
		if s.TMS < burstMS {
			preSum += s.Recall
			preN++
		}
	}
	run.MeanRecall = sum / float64(len(run.Samples))
	run.FinalRecall = run.Samples[len(run.Samples)-1].Recall
	if preN > 0 {
		run.PreBurstRecall = preSum / float64(preN)
	}
	run.RepairConvergenceRounds = -1
	run.PostBurstMinRecall = 1
	rounds := 0
	for _, s := range run.Samples {
		if s.TMS < burstMS {
			continue
		}
		rounds++
		if s.Recall < run.PostBurstMinRecall {
			run.PostBurstMinRecall = s.Recall
		}
		if run.RepairConvergenceRounds < 0 && s.Recall >= run.PreBurstRecall-0.02 {
			run.RepairConvergenceRounds = rounds
			run.RepairConvergenceMS = s.TMS - burstMS
		}
	}
	if rounds == 0 {
		run.PostBurstMinRecall = 0
	}
}

// Churn runs the churn-at-scale experiment for the three overlay schemes.
func Churn(p ChurnParams, seed int64) *ChurnResult {
	return &ChurnResult{
		Nodes: p.Nodes, Degree: p.Degree,
		HorizonMS: ms(p.Horizon), BurstAtMS: ms(p.BurstAt), BurstFrac: p.BurstFrac,
		Schemes: []ChurnSchemeRun{
			runChurnScheme(p, "bpr", seed, newReconfigOverlay),
			runChurnScheme(p, "bps", seed, newStaticOverlay),
			runChurnScheme(p, "flood", seed, newFloodOverlay),
		},
	}
}

// churnRecallFigure renders recall over time, one series per run.
func churnRecallFigure(id, title string, p ChurnParams, runs []ChurnSchemeRun) *Figure {
	fig := &Figure{
		ID:     id,
		Title:  title + " (" + strconv.Itoa(p.Nodes) + " nodes, burst at " + p.BurstAt.String() + ")",
		XLabel: "time (ms)", YLabel: "recall",
	}
	for _, run := range runs {
		s := Series{Name: run.Scheme}
		for _, smp := range run.Samples {
			s.Points = append(s.Points, Point{smp.TMS, smp.Recall})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// FigChurn renders recall over time per scheme.
func FigChurn(p ChurnParams, seed int64) (*Figure, *ChurnResult) {
	res := Churn(p, seed)
	return churnRecallFigure("C1", "Recall under churn", p, res.Schemes), res
}
