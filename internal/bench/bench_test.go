package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

func testParams(seed int64) params {
	spec := workload.Default(seed)
	return params{
		Cost:        DefaultCost(),
		Spec:        spec,
		Query:       spec.Keyword(7),
		MaxPeers:    8,
		IncludeData: true,
	}
}

// Answer conservation: every scheme must deliver exactly the matches that
// exist at reachable nodes.
func TestSchemesDeliverAllAnswers(t *testing.T) {
	p := testParams(1)
	tops := map[string]*topology.Topology{
		"star": topology.Star(16),
		"tree": topology.Tree(16, 2),
		"line": topology.Line(16),
	}
	for name, tp := range tops {
		want := expectedAnswers(tp, p.Spec, p.Query, 64)
		if want == 0 {
			t.Fatalf("%s: workload produced no matches", name)
		}
		if got := runCS(tp, p, false).TotalAnswers; got != want {
			t.Errorf("%s MCS answers = %d, want %d", name, got, want)
		}
		if got := runCS(tp, p, true).TotalAnswers; got != want {
			t.Errorf("%s SCS answers = %d, want %d", name, got, want)
		}
		for _, strat := range []reconfig.Strategy{reconfig.Static{}, reconfig.MaxCount{}, reconfig.MinHops{}} {
			runs := runBestPeer(tp, p, 3, strat)
			for r, res := range runs {
				if res.TotalAnswers != want {
					t.Errorf("%s BP(%s) round %d answers = %d, want %d",
						name, strat.Name(), r, res.TotalAnswers, want)
				}
			}
		}
		for r, res := range runGnutella(tp, p, 2) {
			if res.TotalAnswers != want {
				t.Errorf("%s GNU round %d answers = %d, want %d", name, r, res.TotalAnswers, want)
			}
		}
	}
}

func TestSimulationsDeterministic(t *testing.T) {
	p := testParams(5)
	tp := topology.Tree(24, 2)
	a := runBestPeer(tp, p, 3, reconfig.MaxCount{})
	b := runBestPeer(tp, p, 3, reconfig.MaxCount{})
	for r := range a {
		if a[r].Completion != b[r].Completion || a[r].TotalAnswers != b[r].TotalAnswers {
			t.Fatalf("round %d nondeterministic: %v vs %v", r, a[r].Completion, b[r].Completion)
		}
	}
	if runCS(tp, p, false).Completion != runCS(tp, p, false).Completion {
		t.Fatal("CS nondeterministic")
	}
}

func TestTTLLimitsReach(t *testing.T) {
	p := testParams(2)
	p.TTL = 3
	tp := topology.Line(10)
	want := expectedAnswers(tp, p.Spec, p.Query, 3)
	all := expectedAnswers(tp, p.Spec, p.Query, 64)
	if want >= all {
		t.Skip("workload has no matches beyond hop 3")
	}
	got := runBestPeer(tp, p, 1, reconfig.Static{})[0].TotalAnswers
	if got != want {
		t.Fatalf("TTL-limited answers = %d, want %d (full = %d)", got, want, all)
	}
}

// Fig 5(a) shape: SCS degrades sharply; MCS and BP-based schemes stay
// close; BPS == BPR on a star.
func TestFig5aShape(t *testing.T) {
	fig := fig5a(DefaultCost(), 1)
	scs, _ := fig.SeriesByName("SCS").YAt(32)
	mcs, _ := fig.SeriesByName("MCS").YAt(32)
	bps, _ := fig.SeriesByName("BPS").YAt(32)
	bpr, _ := fig.SeriesByName("BPR").YAt(32)
	if scs < 4*mcs {
		t.Errorf("SCS (%v) should be far worse than MCS (%v) at 32 nodes", scs, mcs)
	}
	if mcs > bps {
		t.Errorf("MCS (%v) should be at least as good as BPS (%v) on a star", mcs, bps)
	}
	if diff := bps - bpr; diff < 0 {
		diff = -diff
	} else if diff/bps > 0.05 {
		t.Errorf("BPS (%v) and BPR (%v) should coincide on a star", bps, bpr)
	}
}

// Fig 5(b) shape: CS wins at level 1 (query-shipping beats code-shipping
// on a flat network) but degrades with depth; BPR < BPS < CS at level 5.
func TestFig5bShape(t *testing.T) {
	fig := fig5b(DefaultCost(), 1)
	cs1, _ := fig.SeriesByName("CS").YAt(1)
	bps1, _ := fig.SeriesByName("BPS").YAt(1)
	if cs1 > bps1 {
		t.Errorf("level 1: CS (%v) should beat BPS (%v) — agent overhead", cs1, bps1)
	}
	cs5, _ := fig.SeriesByName("CS").YAt(5)
	bps5, _ := fig.SeriesByName("BPS").YAt(5)
	bpr5, _ := fig.SeriesByName("BPR").YAt(5)
	if bps5 > cs5 {
		t.Errorf("level 5: BPS (%v) should beat CS (%v) — path returns hurt CS", bps5, cs5)
	}
	if bpr5 >= bps5 {
		t.Errorf("level 5: BPR (%v) should beat BPS (%v) — reconfiguration", bpr5, bps5)
	}
}

// Fig 5(c) shape: on a deep line, BPR < BPS < CS.
func TestFig5cShape(t *testing.T) {
	fig := fig5c(DefaultCost(), 1)
	cs, _ := fig.SeriesByName("CS").YAt(32)
	bps, _ := fig.SeriesByName("BPS").YAt(32)
	bpr, _ := fig.SeriesByName("BPR").YAt(32)
	if bps > cs {
		t.Errorf("line 32: BPS (%v) should beat CS (%v)", bps, cs)
	}
	if bpr >= bps {
		t.Errorf("line 32: BPR (%v) should beat BPS (%v)", bpr, bps)
	}
}

// Fig 6 shape: CS responds first (cheap query shipping) but BPR reaches
// full coverage earlier; every scheme eventually hears from all 31
// non-base nodes.
func TestFig6Shape(t *testing.T) {
	fig := fig6(DefaultCost(), 1)
	cs := fig.SeriesByName("CS")
	bps := fig.SeriesByName("BPS")
	bpr := fig.SeriesByName("BPR")
	for _, s := range []*series{cs, bps, bpr} {
		if s.Last().Y != 31 {
			t.Errorf("%s reached %v nodes, want 31", s.Name, s.Last().Y)
		}
	}
	if cs.Points[0].X > bps.Points[0].X {
		t.Errorf("CS first response (%v ms) should precede BPS (%v ms)",
			cs.Points[0].X, bps.Points[0].X)
	}
	if bpr.Last().X >= bps.Last().X {
		t.Errorf("BPR completion (%v) should precede BPS (%v)", bpr.Last().X, bps.Last().X)
	}
	if bpr.Last().X >= cs.Last().X {
		t.Errorf("BPR completion (%v) should precede CS (%v)", bpr.Last().X, cs.Last().X)
	}
}

// Fig 7 shape: all schemes converge to the same answer count; CS leads
// early, BP-based schemes overtake.
func TestFig7Shape(t *testing.T) {
	fig := fig7(DefaultCost(), 1)
	cs := fig.SeriesByName("CS")
	bps := fig.SeriesByName("BPS")
	bpr := fig.SeriesByName("BPR")
	if cs.Last().Y != bps.Last().Y || bps.Last().Y != bpr.Last().Y {
		t.Errorf("answer totals diverge: CS=%v BPS=%v BPR=%v",
			cs.Last().Y, bps.Last().Y, bpr.Last().Y)
	}
	if cs.Points[0].X > bps.Points[0].X {
		t.Errorf("CS first answer (%v) should precede BPS (%v)", cs.Points[0].X, bps.Points[0].X)
	}
	if bpr.Last().X >= cs.Last().X {
		t.Errorf("BPR last answer (%v) should precede CS (%v)", bpr.Last().X, cs.Last().X)
	}
}

// Fig 8(a) shape: Gnutella flat across runs; BP run 1 expensive, runs
// 2..4 sharply cheaper and below Gnutella.
func TestFig8aShape(t *testing.T) {
	fig := fig8a(DefaultCost(), 1)
	bp := fig.SeriesByName("BP")
	gnu := fig.SeriesByName("Gnutella")
	gmin, gmax := gnu.Points[0].Y, gnu.Points[0].Y
	for _, pt := range gnu.Points {
		if pt.Y < gmin {
			gmin = pt.Y
		}
		if pt.Y > gmax {
			gmax = pt.Y
		}
	}
	if gmax/gmin > 1.05 {
		t.Errorf("Gnutella not flat across runs: min=%v max=%v", gmin, gmax)
	}
	run1 := bp.Points[0].Y
	for _, pt := range bp.Points[1:] {
		if pt.Y >= run1 {
			t.Errorf("BP run %v (%v) not faster than run 1 (%v)", pt.X, pt.Y, run1)
		}
		if pt.Y >= gmin {
			t.Errorf("BP warm run %v (%v) not faster than Gnutella (%v)", pt.X, pt.Y, gmin)
		}
	}
}

// Fig 8(b) shape: BP mean completion below Gnutella at every peer budget.
func TestFig8bShape(t *testing.T) {
	fig := fig8b(DefaultCost(), 1)
	bp := fig.SeriesByName("BP")
	gnu := fig.SeriesByName("Gnutella")
	for i := range bp.Points {
		if bp.Points[i].Y >= gnu.Points[i].Y {
			t.Errorf("budget %v: BP (%v) not below Gnutella (%v)",
				bp.Points[i].X, bp.Points[i].Y, gnu.Points[i].Y)
		}
	}
	// More peers help both schemes overall (first vs last).
	if bp.Last().Y > bp.Points[0].Y {
		t.Errorf("BP did not improve with more peers: %v -> %v", bp.Points[0].Y, bp.Last().Y)
	}
}

func TestAblationStrategiesShape(t *testing.T) {
	fig := ablationStrategies(DefaultCost(), 1)
	static := fig.SeriesByName("static")
	maxcount := fig.SeriesByName("maxcount")
	minhops := fig.SeriesByName("minhops")
	// Static is flat; both reconfiguring strategies improve on round 1.
	if static.Points[0].Y != static.Last().Y {
		t.Errorf("static strategy changed across rounds: %+v", static.Points)
	}
	for _, s := range []*series{maxcount, minhops} {
		if s.Last().Y >= s.Points[0].Y {
			t.Errorf("%s did not improve: %v -> %v", s.Name, s.Points[0].Y, s.Last().Y)
		}
		if s.Last().Y >= static.Last().Y {
			t.Errorf("%s (%v) not better than static (%v)", s.Name, s.Last().Y, static.Last().Y)
		}
	}
}

func TestAblationCompressionHelps(t *testing.T) {
	fig := ablationCompression(DefaultCost(), 1)
	off, _ := fig.Series[0].YAt(0)
	on, _ := fig.Series[0].YAt(1)
	if on >= off {
		t.Errorf("gzip on (%v) not faster than off (%v)", on, off)
	}
}

func TestAblationColdClassCost(t *testing.T) {
	fig := ablationColdClass(DefaultCost(), 1)
	cold, _ := fig.Series[0].YAt(1)
	warm, _ := fig.Series[0].YAt(2)
	if warm >= cold {
		t.Errorf("warm round (%v) not faster than cold round (%v)", warm, cold)
	}
}

func TestAblationResultMode(t *testing.T) {
	fig := ablationResultMode(DefaultCost(), 1)
	data, _ := fig.Series[0].YAt(1)
	names, _ := fig.Series[0].YAt(2)
	if names >= data {
		t.Errorf("names-only (%v) not faster than full data (%v)", names, data)
	}
}

func TestAblationShippingShape(t *testing.T) {
	fig := ablationShipping(DefaultCost(), 1)
	code := fig.SeriesByName("code-ship")
	data := fig.SeriesByName("data-ship")
	for i := range code.Points {
		if data.Points[i].Y <= code.Points[i].Y {
			t.Errorf("n=%v: data-shipping (%v) should be slower than code-shipping (%v)",
				code.Points[i].X, data.Points[i].Y, code.Points[i].Y)
		}
	}
	// The gap widens with network size: shipped stores scale with n.
	gapFirst := data.Points[0].Y / code.Points[0].Y
	gapLast := data.Last().Y / code.Last().Y
	if gapLast <= gapFirst {
		t.Errorf("data-shipping gap did not widen: %.2fx -> %.2fx", gapFirst, gapLast)
	}
}

func TestDataShipConservesAnswers(t *testing.T) {
	p := testParams(1)
	p.DataShip = true
	tp := topology.Tree(12, 2)
	want := expectedAnswers(tp, p.Spec, p.Query, 64)
	got := runBestPeer(tp, p, 1, reconfig.Static{})[0].TotalAnswers
	if got != want {
		t.Fatalf("data-ship answers = %d, want %d", got, want)
	}
}

func TestRenderProducesTable(t *testing.T) {
	fig := &figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []series{
			{Name: "a", Points: []point{{1, 10}, {2, 20}}},
			{Name: "b", Points: []point{{1, 11}}},
		},
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure t", "a", "b", "10", "20", "11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCostModelHelpers(t *testing.T) {
	c := DefaultCost()
	if c.compressed(1000) >= 1000 {
		t.Fatal("compression did not shrink")
	}
	c.compression = 1.0
	if c.compressed(1000) != 1000 {
		t.Fatal("ratio 1.0 should be identity")
	}
	c.compression = 0
	if c.compressed(1000) != 1000 {
		t.Fatal("ratio 0 should be identity (disabled)")
	}
	if c.scanCost(1000) != 1000*c.MatchPerObject {
		t.Fatal("scan cost wrong")
	}
	if c.resultSize(0, 1024, true) != 0 {
		t.Fatal("zero hits should cost nothing")
	}
	if c.resultSize(3, 1024, true) <= c.resultSize(3, 1024, false) {
		t.Fatal("data results should dwarf name results")
	}
}

func TestRunResultEventsSorted(t *testing.T) {
	p := testParams(3)
	tp := topology.Tree(16, 2)
	res := runBestPeer(tp, p, 1, reconfig.Static{})[0]
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].At < res.Events[i-1].At {
			t.Fatal("events not time-sorted")
		}
	}
	if res.Completion != res.Events[len(res.Events)-1].At {
		t.Fatal("completion != last event time")
	}
	if res.Msgs == 0 || res.Bytes == 0 {
		t.Fatal("traffic counters empty")
	}
	_ = time.Duration(0)
}

func TestTrafficTableShape(t *testing.T) {
	fig := trafficTable(DefaultCost(), 1)
	cs := fig.SeriesByName("CS")
	bps := fig.SeriesByName("BPS")
	// On the star (x=1) answers travel one hop for both, so traffic is
	// comparable; on the line (x=3) CS re-transmits every answer at every
	// hop and must dwarf BestPeer.
	csLine, _ := cs.YAt(3)
	bpsLine, _ := bps.YAt(3)
	if csLine < 4*bpsLine {
		t.Errorf("line: CS traffic (%v KB) should dwarf BPS (%v KB)", csLine, bpsLine)
	}
	csStar, _ := cs.YAt(1)
	bpsStar, _ := bps.YAt(1)
	if csStar > bpsStar {
		t.Errorf("star: CS traffic (%v KB) should not exceed BPS (%v KB) — agents are bigger than queries", csStar, bpsStar)
	}
	// CS traffic grows with depth.
	csTree, _ := cs.YAt(2)
	if !(csStar < csTree && csTree < csLine) {
		t.Errorf("CS traffic not increasing with depth: %v, %v, %v", csStar, csTree, csLine)
	}
}
