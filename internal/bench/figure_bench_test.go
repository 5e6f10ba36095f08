package bench

// One testing.B benchmark per table/figure of the paper's evaluation.
// Figure benches run the deterministic simulator; each iteration
// regenerates the whole figure, so `go test -bench=. -benchmem
// ./internal/bench/` reproduces every experiment; `go run ./cmd/bpbench`
// prints the same data as tables.

import (
	"testing"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

// reportCompletion attaches the headline series values to the bench
// output, so -bench runs show the reproduced numbers.
func reportCompletion(b *testing.B, fig *figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) > 0 {
			b.ReportMetric(s.Last().Y, s.Name+"_ms")
		}
	}
}

func BenchmarkFig5aStar(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig5a(cost, 1)
	}
	reportCompletion(b, fig)
}

func BenchmarkFig5bTree(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig5b(cost, 1)
	}
	reportCompletion(b, fig)
}

func BenchmarkFig5cLine(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig5c(cost, 1)
	}
	reportCompletion(b, fig)
}

func BenchmarkFig6ResponseRate(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig6(cost, 1)
	}
	// Report the time by which each scheme had heard from all nodes.
	for _, s := range fig.Series {
		b.ReportMetric(s.Last().X, s.Name+"_all31_ms")
	}
}

func BenchmarkFig7Answers(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig7(cost, 1)
	}
	for _, s := range fig.Series {
		b.ReportMetric(s.Last().X, s.Name+"_lastanswer_ms")
	}
}

func BenchmarkFig8aRuns(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig8a(cost, 1)
	}
	bp := fig.SeriesByName("BP")
	gnu := fig.SeriesByName("Gnutella")
	b.ReportMetric(bp.Points[0].Y, "BP_run1_ms")
	b.ReportMetric(bp.Last().Y, "BP_run4_ms")
	b.ReportMetric(gnu.Last().Y, "GNU_ms")
}

func BenchmarkFig8bPeers(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = fig8b(cost, 1)
	}
	reportCompletion(b, fig)
}

func BenchmarkAblationStrategies(b *testing.B) {
	cost := DefaultCost()
	var fig *figure
	for i := 0; i < b.N; i++ {
		fig = ablationStrategies(cost, 1)
	}
	reportCompletion(b, fig)
}

func BenchmarkAblationCompression(b *testing.B) {
	cost := DefaultCost()
	for i := 0; i < b.N; i++ {
		ablationCompression(cost, 1)
	}
}

func BenchmarkAblationColdClass(b *testing.B) {
	cost := DefaultCost()
	for i := 0; i < b.N; i++ {
		ablationColdClass(cost, 1)
	}
}

func BenchmarkAblationResultMode(b *testing.B) {
	cost := DefaultCost()
	for i := 0; i < b.N; i++ {
		ablationResultMode(cost, 1)
	}
}

// BenchmarkBestPeerRound measures one simulated BestPeer query round on a
// 32-node tree (the core protocol hot path).
func BenchmarkBestPeerRound(b *testing.B) {
	spec := workload.Default(1)
	p := params{
		Cost: DefaultCost(), Spec: spec, Query: spec.Keyword(7), IncludeData: true,
	}
	tp := topology.Tree(32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBestPeer(tp, p, 1, reconfig.Static{})
	}
}
