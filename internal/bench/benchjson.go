package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Report is bpbench's machine-readable output (the BENCH_*.json file):
// the simulated figures plus, when a live run was requested, one entry
// per scheme with its rounds and a metrics section snapshotted from the
// cluster's obs registries.
type Report struct {
	Seed    int64        `json:"seed"`
	Figures []*Figure    `json:"figures,omitempty"`
	Live    []*SchemeRun `json:"live,omitempty"`
	// Convergence holds the per-strategy reconfiguration timelines when
	// the convergence figure was requested.
	Convergence []*StrategyTimeline `json:"convergence,omitempty"`
	// Traffic holds the flood-vs-qroute message comparison when the
	// traffic figure was requested.
	Traffic *TrafficResult `json:"traffic,omitempty"`
	// Churn holds the churn-at-scale recall/repair comparison when the
	// churn figure was requested.
	Churn *ChurnResult `json:"churn,omitempty"`
	// DHT holds the chord-vs-flood-vs-BPR comparison when the dht
	// figure was requested.
	DHT *DHTResult `json:"dht,omitempty"`
}

// NewReport regenerates the named bpbench figure (the -fig values) at
// seed, rendering each table and summary line to w as it is produced and
// collecting the same data into the report. It is the one path from the
// experiments to a BENCH_*.json file: cmd/bpbench writes what it returns
// and TestBenchGolden compares that against the committed files.
func NewReport(fig string, seed int64, w io.Writer) (*Report, error) {
	cost := DefaultCost()
	r := &Report{Seed: seed}
	add := func(figs ...*Figure) {
		for _, f := range figs {
			f.Render(w)
		}
		r.Figures = append(r.Figures, figs...)
	}
	convergence := func() {
		add(FigConvergence(cost, seed))
		r.Convergence = Convergence(cost, seed)
	}
	churn := func() {
		f, res := FigChurn(DefaultChurnParams(), seed)
		add(f)
		r.Churn = res
		for _, sr := range res.Schemes {
			fmt.Fprintf(w, "churn %-6s mean recall %.3f, post-burst min %.3f, reconverged in %d rounds, %d msgs, %d repairs, cache %d/%d\n",
				sr.Scheme, sr.MeanRecall, sr.PostBurstMinRecall,
				sr.RepairConvergenceRounds, sr.Msgs, sr.Repairs, sr.CacheHits, sr.CacheLookups)
		}
		fmt.Fprintln(w)
	}

	switch fig {
	case "all", "nochurn":
		add(AllFigures(cost, seed)...)
		convergence()
		r.Traffic = Traffic(cost, seed)
		if fig == "all" {
			churn()
		}
	case "5a":
		add(Fig5a(cost, seed))
	case "5b":
		add(Fig5b(cost, seed))
	case "5c":
		add(Fig5c(cost, seed))
	case "6":
		add(Fig6(cost, seed))
	case "7":
		add(Fig7(cost, seed))
	case "8a":
		add(Fig8a(cost, seed))
	case "8b":
		add(Fig8b(cost, seed))
	case "ablations":
		add(AblationStrategies(cost, seed), AblationCompression(cost, seed),
			AblationColdClass(cost, seed), AblationResultMode(cost, seed),
			AblationShipping(cost, seed))
	case "convergence":
		convergence()
	case "traffic":
		add(TrafficTable(cost, seed), FigTraffic(cost, seed))
		r.Traffic = Traffic(cost, seed)
		fmt.Fprintf(w, "traffic totals: flood %d msgs, qroute %d msgs (expected answers %d)\n\n",
			r.Traffic.FloodMsgs, r.Traffic.QRouteMsgs, r.Traffic.Expected)
	case "churn":
		churn()
	case "dht":
		figs, res := FigDHT(DefaultDHTParams(), seed)
		add(figs...)
		r.DHT = res
		for _, sr := range res.Static {
			fmt.Fprintf(w, "dht %-6s %-8s recall %.3f, mean hops %.2f, %d msgs, %d bytes (%d lookups)\n",
				sr.Scheme, sr.Workload, sr.Recall, sr.MeanHops, sr.Msgs, sr.Bytes, sr.Lookups)
		}
		fmt.Fprintf(w, "dht hop bound: ceil(log2 %d)+1 = %d\n", res.Nodes, res.HopBound)
		for _, sr := range res.Churn {
			fmt.Fprintf(w, "dht churn %-6s mean recall %.3f, post-burst min %.3f, reconverged in %d rounds, %d msgs\n",
				sr.Scheme, sr.MeanRecall, sr.PostBurstMinRecall, sr.RepairConvergenceRounds, sr.Msgs)
		}
		fmt.Fprintln(w)
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
	return r, nil
}

// SchemeRun is one strategy's live-stack run.
type SchemeRun struct {
	Scheme  string      `json:"scheme"`
	Rounds  []RoundStat `json:"rounds"`
	Metrics LiveMetrics `json:"metrics"`
}

// RoundStat is one query round of a live run.
type RoundStat struct {
	CompletionMS    float64 `json:"completion_ms"`
	Answers         int     `json:"answers"`
	MaxHops         int     `json:"max_hops"`
	AgentsForwarded uint64  `json:"agents_forwarded"`
}

// AddRound appends a live round result to the scheme run.
func (sr *SchemeRun) AddRound(res LiveResult) {
	sr.Rounds = append(sr.Rounds, RoundStat{
		CompletionMS:    float64(res.Completion) / float64(time.Millisecond),
		Answers:         res.TotalAnswers,
		MaxHops:         res.MaxHops,
		AgentsForwarded: res.AgentsForwarded,
	})
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
