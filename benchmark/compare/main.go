// Command compare sets two result files of the benchmark (written with
// `benchmark -out`) side by side: per workload and end-to-end metric it
// prints both values, the relative change with its base, the metric's
// bound from BENCHMARK.json and a verdict — worse, within or better.
// A workload that BENCHMARK.json does not list (zipf-cache) and metrics
// beyond the contract's are shown, not judged. It exits non-zero on any
// worse or any rise in a workload's failed share.
//
//	go run ./benchmark/compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	Workload  string                 `json:"workload"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type resultFile struct {
	Seed    int64            `json:"seed"`
	Seconds int              `json:"seconds"`
	Results []workloadResult `json:"results"`
}

type metricBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricBound `json:"end_to_end"`
}

const (
	worse  = "worse"
	within = "within"
	better = "better"
)

// judge classifies the move from base to now for a metric whose good
// direction is dir ("lower" or "higher") and whose bound is a share of
// the base.
func judge(base, now float64, dir string, bound float64) string {
	if dir == "higher" {
		base, now = -base, -now
	}
	// From here on lower is better (for "higher" both values are
	// negated, so the tolerance is still a share of |base|).
	tolerance := bound * abs(base)
	switch {
	case now > base+tolerance:
		return worse
	case now < base-tolerance:
		return better
	}
	return within
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func failedShare(r workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// compare prints the table and returns how many rows were worse.
func compare(w io.Writer, c contract, before, after resultFile) int {
	bad := 0
	gated := make(map[string]bool, len(c.EndToEnd))
	for _, m := range c.EndToEnd {
		gated[m.Name] = true
	}
	listed := make(map[string]bool, len(c.Workloads))
	for _, wl := range c.Workloads {
		listed[wl.Name] = true
	}
	byName := make(map[string]workloadResult, len(after.Results))
	for _, r := range after.Results {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %10s %7s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	for _, b := range before.Results {
		a, ok := byName[b.Workload]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the second file: %s\n", b.Workload, worse)
			bad++
			continue
		}
		for _, m := range c.EndToEnd {
			bv, av := b.Metrics[m.Name], a.Metrics[m.Name]
			verdict := judge(bv.Value, av.Value, m.Better, m.Bound)
			change := "n/a"
			if bv.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(av.Value-bv.Value)/bv.Value)
			}
			if !listed[b.Workload] {
				// Not in BENCHMARK.json: too noisy for the bounds to mean anything.
				fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %10s %7s  not gated (%s)\n", b.Workload, m.Name, bv.Value, av.Value, change, "-", m.Unit)
				continue
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %10s %6.0f%%  %s (of %.4f %s)\n",
				b.Workload, m.Name, bv.Value, av.Value, change, 100*m.Bound, verdict, bv.Value, m.Unit)
			if verdict == worse {
				bad++
			}
		}
		// What the files carry beyond the contract (the writer's latency)
		// is shown, not judged.
		var extra []string
		for name, bv := range b.Metrics {
			if av, ok := a.Metrics[name]; ok && !gated[name] && (bv.Value != 0 || av.Value != 0) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			bv, av := b.Metrics[name], a.Metrics[name]
			change := "n/a"
			if bv.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(av.Value-bv.Value)/bv.Value)
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %10s %7s  not gated (%s)\n", b.Workload, name, bv.Value, av.Value, change, "-", bv.Unit)
		}
		if fb, fa := failedShare(b), failedShare(a); fa > fb {
			fmt.Fprintf(w, "%-14s failed share rose from %d/%d to %d/%d: %s\n", b.Workload, b.Failed, b.Attempted, a.Failed, a.Attempted, worse)
			bad++
		}
	}
	return bad
}

func load(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	contractPath := flag.String("contract", "BENCHMARK.json", "where the metric bounds come from")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-contract BENCHMARK.json] before.json after.json")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var (
		c             contract
		before, after resultFile
	)
	for _, in := range []struct {
		path string
		into any
	}{{*contractPath, &c}, {flag.Arg(0), &before}, {flag.Arg(1), &after}} {
		if err := load(in.path, in.into); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	if before.Seed != after.Seed || before.Seconds != after.Seconds {
		fmt.Printf("note: settings differ (seed %d/%d, seconds %d/%d)\n", before.Seed, after.Seed, before.Seconds, after.Seconds)
	}
	if bad := compare(os.Stdout, c, before, after); bad > 0 {
		fmt.Printf("%d worse\n", bad)
		os.Exit(1)
	}
	fmt.Println("every workload x end-to-end metric within its bound or better")
}
