// Command bpbench regenerates every table and figure of the paper's
// evaluation (§4) on the deterministic simulator, printing one aligned
// text table per figure.
//
// Usage:
//
//	bpbench [-fig all|5a|5b|5c|6|7|8a|8b|ablations|convergence|traffic|churn|dht] [-seed N] [-live] [-json FILE]
//
// With -json the same data is also written as a machine-readable report;
// live runs include a metrics section snapshotted from the node
// registries (messages sent/dropped, answer-hop histogram).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bestpeer/internal/bench"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
	"bestpeer/internal/workload"
)

// runLive executes a miniature version of the line experiment on the
// real stack (in-process transport, real storage engine, real agents)
// instead of the simulator, printing per-round wall-clock completions
// for the static and reconfigurable nodes.
func runLive(seed int64, report *bench.Report) {
	spec := &workload.Spec{ObjectsPerNode: 100, ObjectSize: 512, Vocabulary: 10, Seed: seed}
	query := spec.Keyword(3)
	const n, rounds = 8, 3
	fmt.Printf("Live run — %d-node line over in-process transport, query %q\n", n, query)
	fmt.Printf("  %-10s", "strategy")
	for r := 1; r <= rounds; r++ {
		fmt.Printf("  round%d(ms)", r)
	}
	fmt.Println("  answers  maxhops(last)")
	for _, strat := range []reconfig.Strategy{reconfig.Static{}, reconfig.MaxCount{}} {
		lc, err := bench.NewLiveCluster(topology.Line(n), spec, query, strat, 6)
		if err != nil {
			log.Fatalf("bpbench: live cluster: %v", err)
		}
		fmt.Printf("  %-10s", strat.Name())
		run := &bench.SchemeRun{Scheme: strat.Name()}
		var last bench.LiveResult
		for r := 0; r < rounds; r++ {
			res, err := lc.RunRound(10 * time.Second)
			if err != nil {
				log.Fatalf("bpbench: live round: %v", err)
			}
			fmt.Printf("  %10.2f", float64(res.Completion)/float64(time.Millisecond))
			run.AddRound(res)
			last = res
		}
		fmt.Printf("  %7d  %13d\n", last.TotalAnswers, last.MaxHops)
		run.Metrics = lc.Metrics()
		report.Live = append(report.Live, run)
		lc.Close()
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, nochurn (all but the 10k-node churn run), 5a, 5b, 5c, 6, 7, 8a, 8b, ablations, convergence, traffic, churn, dht")
	seed := flag.Int64("seed", 1, "workload seed")
	live := flag.Bool("live", false, "also run a miniature live-stack comparison")
	jsonPath := flag.String("json", "", "also write a machine-readable report (e.g. BENCH_1.json)")
	flag.Parse()

	report, err := bench.NewReport(*fig, *seed, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *live {
		runLive(*seed, report)
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			log.Fatalf("bpbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
