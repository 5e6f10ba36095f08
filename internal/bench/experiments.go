package bench

import (
	"time"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

// point is one (x, y) sample of a series.
type point struct {
	X float64
	Y float64
}

// series is one labelled curve of a figure.
type series struct {
	Name   string
	Points []point
}

// figure is the data behind one of the paper's plots.
type figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []series
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// steadyBPR runs rounds of a reconfigurable BestPeer query and returns
// the post-warm-up completion time (the paper's BPR numbers reflect the
// reconfigured network; its first-run cost appears explicitly in Fig 8a).
func steadyBPR(tp *topology.Topology, p params, strategy reconfig.Strategy) runResult {
	runs := runBestPeer(tp, p, 2, strategy)
	return runs[len(runs)-1]
}

// defaultSpec builds the §4.2 workload: 1000 × 1 KB objects per node.
func defaultSpec(seed int64) *workload.Spec { return workload.Default(seed) }

// fig5Params is the shared configuration of the topology experiments.
func fig5Params(cost CostModel, seed int64) params {
	spec := defaultSpec(seed)
	return params{
		Cost:        cost,
		Spec:        spec,
		Query:       spec.Keyword(7),
		MaxPeers:    8,
		IncludeData: true, // the topology experiments return the objects
	}
}

// fig5a reproduces Figure 5(a): completion time on the Star topology as
// the network grows, for SCS, MCS, BPS and BPR.
func fig5a(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	sizes := []int{2, 4, 8, 16, 24, 32}
	fig := &figure{
		ID: "5a", Title: "Star topology: completion time vs nodes",
		XLabel: "nodes", YLabel: "completion (ms)",
		Series: []series{{Name: "SCS"}, {Name: "MCS"}, {Name: "BPS"}, {Name: "BPR"}},
	}
	for _, n := range sizes {
		tp := topology.Star(n)
		x := float64(n)
		fig.Series[0].Points = append(fig.Series[0].Points, point{x, ms(runCS(tp, p, true).Completion)})
		fig.Series[1].Points = append(fig.Series[1].Points, point{x, ms(runCS(tp, p, false).Completion)})
		fig.Series[2].Points = append(fig.Series[2].Points, point{x, ms(runBestPeer(tp, p, 1, reconfig.Static{})[0].Completion)})
		fig.Series[3].Points = append(fig.Series[3].Points, point{x, ms(steadyBPR(tp, p, reconfig.MaxCount{}).Completion)})
	}
	return fig
}

// fig5b reproduces Figure 5(b): completion time on the Tree topology as
// depth grows (binary tree, capped at 48 nodes at level 5 exactly as the
// paper did), for CS (multi-threaded), BPS and BPR.
func fig5b(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	fig := &figure{
		ID: "5b", Title: "Tree topology: completion time vs levels",
		XLabel: "levels", YLabel: "completion (ms)",
		Series: []series{{Name: "CS"}, {Name: "BPS"}, {Name: "BPR"}},
	}
	for levels := 1; levels <= 5; levels++ {
		n := topology.TreeLevels(2, levels)
		if n > 48 {
			n = 48 // the paper used 48 nodes instead of 63 at level 5
		}
		tp := topology.Tree(n, 2)
		x := float64(levels)
		fig.Series[0].Points = append(fig.Series[0].Points, point{x, ms(runCS(tp, p, false).Completion)})
		fig.Series[1].Points = append(fig.Series[1].Points, point{x, ms(runBestPeer(tp, p, 1, reconfig.Static{})[0].Completion)})
		fig.Series[2].Points = append(fig.Series[2].Points, point{x, ms(steadyBPR(tp, p, reconfig.MaxCount{}).Completion)})
	}
	return fig
}

// fig5c reproduces Figure 5(c): completion time on the Line topology.
func fig5c(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	sizes := []int{2, 4, 8, 16, 24, 32}
	fig := &figure{
		ID: "5c", Title: "Line topology: completion time vs nodes",
		XLabel: "nodes", YLabel: "completion (ms)",
		Series: []series{{Name: "CS"}, {Name: "BPS"}, {Name: "BPR"}},
	}
	for _, n := range sizes {
		tp := topology.Line(n)
		x := float64(n)
		fig.Series[0].Points = append(fig.Series[0].Points, point{x, ms(runCS(tp, p, false).Completion)})
		fig.Series[1].Points = append(fig.Series[1].Points, point{x, ms(runBestPeer(tp, p, 1, reconfig.Static{})[0].Completion)})
		fig.Series[2].Points = append(fig.Series[2].Points, point{x, ms(steadyBPR(tp, p, reconfig.MaxCount{}).Completion)})
	}
	return fig
}

// responseSeries converts a run's events into (time, nodes-responded)
// samples.
func responseSeries(name string, res runResult) series {
	s := series{Name: name}
	seen := make(map[int]bool)
	for _, e := range res.Events {
		if !seen[e.Node] {
			seen[e.Node] = true
			s.Points = append(s.Points, point{ms(e.At), float64(len(seen))})
		}
	}
	return s
}

// answerSeries converts a run's events into (time, cumulative answers).
func answerSeries(name string, res runResult) series {
	s := series{Name: name}
	total := 0
	for _, e := range res.Events {
		total += e.Answers
		s.Points = append(s.Points, point{ms(e.At), float64(total)})
	}
	return s
}

// fig67Runs executes the 32-node tree experiment shared by Figures 6/7.
func fig67Runs(cost CostModel, seed int64) (cs, bps, bpr runResult) {
	p := fig5Params(cost, seed)
	tp := topology.Tree(32, 2)
	cs = runCS(tp, p, false)
	bps = runBestPeer(tp, p, 1, reconfig.Static{})[0]
	bpr = steadyBPR(tp, p, reconfig.MaxCount{})
	return
}

// fig6 reproduces Figure 6: the rate at which nodes respond (32 nodes,
// tree topology). Point (T, K): K nodes have responded by time T.
func fig6(cost CostModel, seed int64) *figure {
	cs, bps, bpr := fig67Runs(cost, seed)
	return &figure{
		ID: "6", Title: "Rate at which answers are returned (32 nodes, tree)",
		XLabel: "time (ms)", YLabel: "nodes responded",
		Series: []series{
			responseSeries("CS", cs),
			responseSeries("BPS", bps),
			responseSeries("BPR", bpr),
		},
	}
}

// fig7 reproduces Figure 7: cumulative number of answers over time for
// the same runs as Figure 6.
func fig7(cost CostModel, seed int64) *figure {
	cs, bps, bpr := fig67Runs(cost, seed)
	return &figure{
		ID: "7", Title: "Number of answers returned over time (32 nodes, tree)",
		XLabel: "time (ms)", YLabel: "answers",
		Series: []series{
			answerSeries("CS", cs),
			answerSeries("BPS", bps),
			answerSeries("BPR", bpr),
		},
	}
}

// fig8Spec builds the Fig. 8 workload: 1000 text files per node, answers
// restricted to a few nodes far from the base.
func fig8Spec(tp *topology.Topology, seed int64) *workload.Spec {
	spec := defaultSpec(seed)
	spec.PlantedKeyword = "needle"
	spec.PlantedHits = 5
	// Plant the answers at the nodes furthest from the base so the first
	// run must route through the whole network.
	dist := tp.BFS(tp.Base)
	type nd struct{ node, d int }
	var far []nd
	for node, d := range dist {
		if node != tp.Base && d > 0 {
			far = append(far, nd{node, d})
		}
	}
	// Selection sort by descending distance, stable by index.
	for i := 0; i < len(far); i++ {
		best := i
		for j := i + 1; j < len(far); j++ {
			if far[j].d > far[best].d || (far[j].d == far[best].d && far[j].node < far[best].node) {
				best = j
			}
		}
		far[i], far[best] = far[best], far[i]
	}
	holders := 4
	if holders > len(far) {
		holders = len(far)
	}
	for i := 0; i < holders; i++ {
		spec.Holders = append(spec.Holders, far[i].node)
	}
	return spec
}

// fig8a reproduces Figure 8(a): BestPeer vs Gnutella completion time per
// run of the same query (up to 8 direct peers, 4 runs). Gnutella is flat
// across runs; BestPeer's first run pays the full route but subsequent
// runs exploit reconfiguration.
func fig8a(cost CostModel, seed int64) *figure {
	const n, peerBudget, rounds = 32, 8, 4
	tp := topology.Random(n, peerBudget/2, seed) // sparse start; budget allows growth
	spec := fig8Spec(tp, seed)
	p := params{
		Cost: cost, Spec: spec, Query: "needle",
		MaxPeers: peerBudget, IncludeData: false, // names only, as in the paper
	}
	bp := runBestPeer(tp, p, rounds, reconfig.MaxCount{})
	gnu := runGnutella(tp, p, rounds)

	fig := &figure{
		ID: "8a", Title: "BestPeer vs Gnutella: completion time per run (8 peers)",
		XLabel: "run", YLabel: "completion (ms)",
		Series: []series{{Name: "BP"}, {Name: "Gnutella"}},
	}
	for r := 0; r < rounds; r++ {
		fig.Series[0].Points = append(fig.Series[0].Points, point{float64(r + 1), ms(bp[r].Completion)})
		fig.Series[1].Points = append(fig.Series[1].Points, point{float64(r + 1), ms(gnu[r].Completion)})
	}
	return fig
}

// fig8b reproduces Figure 8(b): mean completion time over 4 runs as the
// direct-peer budget grows.
func fig8b(cost CostModel, seed int64) *figure {
	const n, rounds = 32, 4
	fig := &figure{
		ID: "8b", Title: "BestPeer vs Gnutella: mean completion vs peers",
		XLabel: "max direct peers", YLabel: "mean completion (ms)",
		Series: []series{{Name: "BP"}, {Name: "Gnutella"}},
	}
	for _, budget := range []int{2, 4, 6, 8, 10} {
		deg := budget / 2
		if deg < 1 {
			deg = 1
		}
		tp := topology.Random(n, deg, seed)
		spec := fig8Spec(tp, seed)
		p := params{
			Cost: cost, Spec: spec, Query: "needle",
			MaxPeers: budget, IncludeData: false,
		}
		bp := runBestPeer(tp, p, rounds, reconfig.MaxCount{})
		gnu := runGnutella(tp, p, rounds)
		var bpSum, gnuSum time.Duration
		for r := 0; r < rounds; r++ {
			bpSum += bp[r].Completion
			gnuSum += gnu[r].Completion
		}
		fig.Series[0].Points = append(fig.Series[0].Points,
			point{float64(budget), ms(bpSum / rounds)})
		fig.Series[1].Points = append(fig.Series[1].Points,
			point{float64(budget), ms(gnuSum / rounds)})
	}
	return fig
}

// ablationStrategies compares reconfiguration strategies (none, MaxCount,
// MinHops) on a 32-node line over successive rounds — the design choice
// §3.3 discusses.
func ablationStrategies(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	tp := topology.Line(32)
	const rounds = 4
	fig := &figure{
		ID: "A1", Title: "Ablation: reconfiguration strategy (32-node line)",
		XLabel: "round", YLabel: "completion (ms)",
	}
	for _, strat := range []reconfig.Strategy{reconfig.Static{}, reconfig.MaxCount{}, reconfig.MinHops{}} {
		s := series{Name: strat.Name()}
		for r, res := range runBestPeer(tp, p, rounds, strat) {
			s.Points = append(s.Points, point{float64(r + 1), ms(res.Completion)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// ablationCompression measures the effect of GZIP on completion time
// (Fig. 5 tree setup, gzip on vs off).
func ablationCompression(cost CostModel, seed int64) *figure {
	tp := topology.Tree(32, 2)
	fig := &figure{
		ID: "A2", Title: "Ablation: GZIP compression (32 nodes, tree)",
		XLabel: "gzip (1=on)", YLabel: "completion (ms)",
		Series: []series{{Name: "BPS"}},
	}
	for _, on := range []bool{false, true} {
		c := cost
		if !on {
			c.compression = 1.0
		}
		p := fig5Params(c, seed)
		x := 0.0
		if on {
			x = 1.0
		}
		res := runBestPeer(tp, p, 1, reconfig.Static{})[0]
		fig.Series[0].Points = append(fig.Series[0].Points, point{x, ms(res.Completion)})
	}
	return fig
}

// ablationColdClass isolates the class-shipping cost: round 1 (every peer
// cold) vs round 2 (class cached everywhere).
func ablationColdClass(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	p.ColdStart = true // every peer must fetch the class on round 1
	tp := topology.Tree(32, 2)
	runs := runBestPeer(tp, p, 2, reconfig.Static{})
	return &figure{
		ID: "A3", Title: "Ablation: cold vs warm class cache (32 nodes, tree)",
		XLabel: "round", YLabel: "completion (ms)",
		Series: []series{{
			Name: "BPS",
			Points: []point{
				{1, ms(runs[0].Completion)},
				{2, ms(runs[1].Completion)},
			},
		}},
	}
}

// ablationResultMode compares returning full objects (mode 1) against
// names only (hint mode) on the Fig. 5 tree setup.
func ablationResultMode(cost CostModel, seed int64) *figure {
	tp := topology.Tree(32, 2)
	fig := &figure{
		ID: "A4", Title: "Ablation: result mode — data vs names (32 nodes, tree)",
		XLabel: "mode (1=data, 2=names)", YLabel: "completion (ms)",
		Series: []series{{Name: "BPS"}},
	}
	for i, includeData := range []bool{true, false} {
		p := fig5Params(cost, seed)
		p.IncludeData = includeData
		res := runBestPeer(tp, p, 1, reconfig.Static{})[0]
		fig.Series[0].Points = append(fig.Series[0].Points, point{float64(i + 1), ms(res.Completion)})
	}
	return fig
}

// ablationShipping compares code-shipping (agents run at the data) with
// naive data-shipping (peers ship their whole store and the base filters
// locally) — the runtime choice §6 of the paper proposes as future work.
func ablationShipping(cost CostModel, seed int64) *figure {
	fig := &figure{
		ID: "A5", Title: "Ablation: code-shipping vs data-shipping (tree)",
		XLabel: "nodes", YLabel: "completion (ms)",
		Series: []series{{Name: "code-ship"}, {Name: "data-ship"}},
	}
	for _, n := range []int{4, 8, 16, 32} {
		tp := topology.Tree(n, 2)
		p := fig5Params(cost, seed)
		x := float64(n)
		fig.Series[0].Points = append(fig.Series[0].Points,
			point{x, ms(runBestPeer(tp, p, 1, reconfig.Static{})[0].Completion)})
		p.DataShip = true
		fig.Series[1].Points = append(fig.Series[1].Points,
			point{x, ms(runBestPeer(tp, p, 1, reconfig.Static{})[0].Completion)})
	}
	return fig
}

// trafficTable compares total network traffic per query across schemes
// and topologies (32 nodes) — the bandwidth-utilization dimension the
// paper's evaluation methodology (§4.1) calls out. x encodes the
// topology: 1 = star, 2 = tree, 3 = line.
func trafficTable(cost CostModel, seed int64) *figure {
	p := fig5Params(cost, seed)
	fig := &figure{
		ID: "T1", Title: "Traffic per query in KB (32 nodes; 1=star 2=tree 3=line)",
		XLabel: "topology", YLabel: "KB delivered",
		Series: []series{{Name: "CS"}, {Name: "BPS"}, {Name: "Gnutella"}},
	}
	kb := func(b uint64) float64 { return float64(b) / 1024 }
	for i, tp := range []*topology.Topology{
		topology.Star(32), topology.Tree(32, 2), topology.Line(32),
	} {
		x := float64(i + 1)
		fig.Series[0].Points = append(fig.Series[0].Points,
			point{x, kb(runCS(tp, p, false).Bytes)})
		fig.Series[1].Points = append(fig.Series[1].Points,
			point{x, kb(runBestPeer(tp, p, 1, reconfig.Static{})[0].Bytes)})
		gp := p
		gp.IncludeData = false // Gnutella never returns data in-band
		fig.Series[2].Points = append(fig.Series[2].Points,
			point{x, kb(runGnutella(tp, gp, 1)[0].Bytes)})
	}
	return fig
}

// allFigures runs every experiment.
func allFigures(cost CostModel, seed int64) []*figure {
	return []*figure{
		fig5a(cost, seed), fig5b(cost, seed), fig5c(cost, seed),
		fig6(cost, seed), fig7(cost, seed),
		fig8a(cost, seed), fig8b(cost, seed),
		ablationStrategies(cost, seed), ablationCompression(cost, seed),
		ablationColdClass(cost, seed), ablationResultMode(cost, seed),
		ablationShipping(cost, seed), trafficTable(cost, seed),
		figTraffic(cost, seed),
	}
}
