// Command benchmark is the repo's performance benchmark: one process
// stands up a real fleet of core.Nodes over transport.TCP on the host's
// loopback interface, with real storm stores and real agents, drives one
// of four workloads against it, verifies every answer and prints every
// metric by name.
//
//	go run ./benchmark -workload all -seed 1 -seconds 30           # end to end
//	go run ./benchmark -workload all -seed 1 -seconds 30 -trace 1  # layer mode + traced run
//	go run ./benchmark -quick                                      # 4 nodes, 1 s windows
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (see BENCHMARK.json and
// README.md). It claims no gain: it is the instrument later changes are
// measured with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// result is one workload's outcome, as written to the -out file.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// resultFile is what -out writes and benchmark/compare reads.
type resultFile struct {
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Quick    bool     `json:"quick,omitempty"`
	Go       string   `json:"go"`
	CPUs     int      `json:"cpus"`
	Loopback bool     `json:"loopback"`
	Results  []result `json:"results"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	out      string
	outDir   string
	contract bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the data set, the query sequence and the writer sequence")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: layer mode plus a traced run, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "4 nodes, 100 objects, 1 s windows: exercises every path in seconds, measures nothing")
	fs.StringVar(&o.out, "out", "", "also write the results to this JSON file (input of benchmark/compare)")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for trace files and the fleets' temporary stores")
	fs.BoolVar(&o.contract, "contract", false, "print BENCHMARK.json as generated from the metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.contract {
		return printContract(stdout, stderr)
	}
	results, err := runAll(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		file := resultFile{
			Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
			Go: runtime.Version(), CPUs: runtime.NumCPU(), Loopback: true, Results: results,
		}
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed or a message was dropped\n", r.Workload, r.Failed, r.Attempted)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs the selected workloads and prints each one's report,
// ending with its one-line JSON result.
func runAll(o options, stdout io.Writer) ([]result, error) {
	selected := workloads
	if o.workload != "all" {
		w := findWorkload(o.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		selected = []*workloadDef{w}
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	sc, window := fullScale, time.Duration(o.seconds)*time.Second
	if o.quick {
		sc, window = quickScale, time.Second
	}
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(stdout, "bestpeer benchmark: seed %d, %v measured per workload after %v warm-up, %s, GOMAXPROCS %d\n",
		o.seed, window, sc.warmup, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "fleet: %d core.Nodes over transport.TCP on 127.0.0.1 — the host's loopback interface, not a real link; load comes from this one process\n",
		sc.nodes)

	var layers map[string]value
	if o.trace == 1 {
		// A quarter of the measured time goes to the layer mode, the
		// rest is split between an untraced and a traced window.
		budget := window / 4 / layerTimedCalls
		var err error
		if layers, err = runLayers(budget, sc.objects, o.seed, tmp); err != nil {
			return nil, fmt.Errorf("layer mode: %w", err)
		}
	}

	var results []result
	for _, w := range selected {
		var (
			res result
			err error
		)
		if o.trace == 1 {
			res, err = runTraced(w, sc, o, window, tmp, layers, stdout)
		} else {
			res, err = runEndToEnd(w, sc, o, window, tmp)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer
		}
		printResult(stdout, w, res, defs)
		results = append(results, res)
		if err := printLine(stdout, res, defs); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// layerTimedCalls is roughly how many functions the layer mode times;
// it turns a time allowance into a per-function budget.
const layerTimedCalls = 45

func runEndToEnd(w *workloadDef, sc scale, o options, window time.Duration, tmp string) (result, error) {
	obs, err := execute(w, sc, o.seed, window, tmp, nil)
	if err != nil {
		return result{}, err
	}
	return newResult(w, obs, foldEndToEnd(obs)), nil
}

func runTraced(w *workloadDef, sc scale, o options, window time.Duration, tmp string, layers map[string]value, stdout io.Writer) (result, error) {
	sc.setups, sc.setupFor = 1, 0 // setup_s comes from the -trace 0 run
	plain, err := execute(w, sc, o.seed, window*3/10, tmp, nil)
	if err != nil {
		return result{}, fmt.Errorf("untraced window: %w", err)
	}
	untraced := foldEndToEnd(plain)["queries_per_s"].Value

	tr := newTracer(layers)
	obs, err := execute(w, sc, o.seed, window*45/100, tmp, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced window: %w", err)
	}
	metrics := foldPerLayer(obs, tr.budget, untraced)
	for name, v := range layers {
		metrics[name] = v
	}
	simRatios(metrics, sc.objects)
	path, err := tr.write(o.outDir)
	if err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	res := newResult(w, obs, metrics)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Notes = append(res.Notes, plain.notes...)
	res.Correct = res.Correct && plain.failed == 0
	printBudget(stdout, w, tr.budget, path)
	return res, nil
}

func newResult(w *workloadDef, o *observed, metrics map[string]value) result {
	res := result{Workload: w.name, Attempted: o.attempted, Failed: o.failed, Notes: o.notes, Metrics: metrics}
	if dropped := o.shut.fc.since(o.open.fc).dropped; dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d messages dropped by the transport during the window", dropped))
		res.Failed++
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Notes = append(res.Notes, "no operation completed inside the window")
	}
	res.Correct = res.Failed == 0
	return res
}

// printLine writes the contract's one-line result: exactly the keys
// correct, attempted, failed and metrics, with exactly the metrics of
// defs, each as value and unit.
func printLine(w io.Writer, res result, defs []metricDef) error {
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]plain, len(defs))}
	for _, d := range defs {
		v := res.Metrics[d.name]
		line.Metrics[d.name] = plain{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func printResult(w io.Writer, wl *workloadDef, res result, defs []metricDef) {
	traced := len(defs) == len(perLayer)
	title := "end to end, untraced"
	if traced {
		title = "per layer: layer mode + traced run"
	} else if wl.writer {
		// The writer's latency rides along, ungated (see putLiveP50).
		defs = append(append([]metricDef(nil), defs...), metricDef{name: putLiveP50}, metricDef{name: putLiveP95})
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n%s\n", wl.name, title, wl.why)
	if wl.ungated != "" {
		fmt.Fprintf(w, "not in BENCHMARK.json: %s\n", wl.ungated)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
	for _, d := range defs {
		v := res.Metrics[d.name]
		format := "  %-32s %14.4f %-6s"
		if v.Value != 0 && v.Value < 0.001 && v.Value > -0.001 {
			format = "  %-32s %14.3g %-6s" // the simulator ratios are millionths
		}
		line := fmt.Sprintf(format, d.name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.Window != 0 {
			line += fmt.Sprintf("  (whole window: %.4f)", v.Window)
		}
		if traced && strings.HasPrefix(d.name, "sim.") {
			line += "  (" + d.moves + ")"
		}
		fmt.Fprintln(w, line)
	}
}

func printBudget(w io.Writer, wl *workloadDef, b *budget, path string) {
	fmt.Fprintf(w, "\n-- %s: per-query budget over %d traced queries (CPU %.3f ms/query) --\n", wl.name, b.queries, b.cpuMS)
	fmt.Fprintf(w, "  %-10s %12s %14s %8s  %s\n", "layer", "calls/query", "busy ms/query", "share", "how")
	for _, row := range b.rows {
		fmt.Fprintf(w, "  %-10s %12.2f %14.4f %7.1f%%  %s\n", row.Layer, row.Calls, row.BusyMS, 100*row.Share, row.How)
	}
	rest := b.cpuMS - b.accountedMS
	fmt.Fprintf(w, "  accounted %.4f of %.4f ms (%.1f%%); unaccounted %.4f ms: GC, scheduler, socket reads, core's own glue\n",
		b.accountedMS, b.cpuMS, 100*ratio(b.accountedMS, b.cpuMS), rest)
	if b.serialModel > 0 {
		fmt.Fprintf(w, "  serial model for run 1: %.3f ms against %.3f ms observed (%.0f%%)\n",
			b.serialModel, b.serialSeen, 100*ratio(b.serialModel, b.serialSeen))
	}
	if path != "" {
		fmt.Fprintf(w, "  spans written to %s\n", path)
	}
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractLayer    `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured window the driver asks for: with three
// gated workloads it makes 70 runs in 3420 s, so each has 48 s to spend
// and takes 38–40 (set-ups, warm-up, checks and teardown are about 4).
const runSeconds = 35

func buildContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.ungated == "" {
			c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{d.name, d.unit, d.better})
	}
	return c
}

func printContract(stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(buildContract(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
