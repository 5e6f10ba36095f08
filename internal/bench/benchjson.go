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
	Figures []*figure    `json:"figures,omitempty"`
	Live    []*SchemeRun `json:"live,omitempty"`
	// Convergence holds the per-strategy reconfiguration timelines when
	// the convergence figure was requested.
	Convergence []*strategyTimeline `json:"convergence,omitempty"`
	// Traffic holds the flood-vs-qroute message comparison when the
	// traffic figure was requested.
	Traffic *trafficResult `json:"traffic,omitempty"`
	// Churn holds the churn-at-scale recall/repair comparison when the
	// churn figure was requested.
	Churn *churnResult `json:"churn,omitempty"`
	// DHT holds the chord-vs-flood-vs-BPR comparison when the dht
	// figure was requested.
	DHT *dhtResult `json:"dht,omitempty"`
}

// NewReport regenerates the named bpbench figure (the -fig values) at
// seed, rendering each table and summary line to w as it is produced and
// collecting the same data into the report. It is the one path from the
// experiments to a BENCH_*.json file: cmd/bpbench writes what it returns
// and TestBenchGolden compares that against the committed files.
func NewReport(fig string, seed int64, w io.Writer) (*Report, error) {
	cost := DefaultCost()
	r := &Report{Seed: seed}
	add := func(figs ...*figure) {
		for _, f := range figs {
			f.Render(w)
		}
		r.Figures = append(r.Figures, figs...)
	}
	addConvergence := func() {
		add(figConvergence(cost, seed))
		r.Convergence = convergence(cost, seed)
	}
	addChurn := func() {
		f, res := figChurn(defaultChurnParams(), seed)
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
		add(allFigures(cost, seed)...)
		addConvergence()
		r.Traffic = traffic(cost, seed)
		if fig == "all" {
			addChurn()
		}
	case "5a":
		add(fig5a(cost, seed))
	case "5b":
		add(fig5b(cost, seed))
	case "5c":
		add(fig5c(cost, seed))
	case "6":
		add(fig6(cost, seed))
	case "7":
		add(fig7(cost, seed))
	case "8a":
		add(fig8a(cost, seed))
	case "8b":
		add(fig8b(cost, seed))
	case "ablations":
		add(ablationStrategies(cost, seed), ablationCompression(cost, seed),
			ablationColdClass(cost, seed), ablationResultMode(cost, seed),
			ablationShipping(cost, seed))
	case "convergence":
		addConvergence()
	case "traffic":
		add(trafficTable(cost, seed), figTraffic(cost, seed))
		r.Traffic = traffic(cost, seed)
		fmt.Fprintf(w, "traffic totals: flood %d msgs, qroute %d msgs (expected answers %d)\n\n",
			r.Traffic.FloodMsgs, r.Traffic.QRouteMsgs, r.Traffic.Expected)
	case "churn":
		addChurn()
	case "dht":
		figs, res := figDHT(defaultDHTParams(), seed)
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
	Rounds  []roundStat `json:"rounds"`
	Metrics LiveMetrics `json:"metrics"`
}

// roundStat is one query round of a live run.
type roundStat struct {
	CompletionMS    float64 `json:"completion_ms"`
	Answers         int     `json:"answers"`
	MaxHops         int     `json:"max_hops"`
	AgentsForwarded uint64  `json:"agents_forwarded"`
}

// AddRound appends a live round result to the scheme run.
func (sr *SchemeRun) AddRound(res LiveResult) {
	sr.Rounds = append(sr.Rounds, roundStat{
		CompletionMS:    float64(res.Completion) / float64(time.Millisecond),
		Answers:         res.TotalAnswers,
		MaxHops:         res.MaxHops,
		AgentsForwarded: res.agentsForwarded,
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
