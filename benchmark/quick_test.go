package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
)

type outputLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// resultLines parses the one-line JSON results out of the report.
func resultLines(t *testing.T, stdout string) []outputLine {
	t.Helper()
	var lines []outputLine
	for _, l := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var line outputLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("result line is not the contract's object: %v\n%s", err, l)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestQuickEndToEnd drives all four workloads at the quick scale through
// the same code the full benchmark runs: fleets over loopback TCP, every
// answer verified, teardown checked for leaks.
func TestQuickEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "all", "--seed", "2", "--trace", "0", "-quick", "-outdir", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want one per workload (%d)", len(lines), len(workloads))
	}
	if last := strings.TrimRight(stdout.String(), "\n"); !strings.HasPrefix(last[strings.LastIndex(last, "\n")+1:], "{") {
		t.Error("the last line of standard output must be the JSON result")
	}
	for i, line := range lines {
		name := workloads[i].name
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, line.Correct, line.Failed, line.Attempted)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := line.Metrics[d.name]
			switch {
			case !ok || m.Value == nil:
				t.Errorf("%s: %s missing", name, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
			case *m.Value <= 0:
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", name, d.name, *m.Value)
			}
		}
		if name != "zipf-cache" {
			if recall := *line.Metrics["recall"].Value; recall != 1 {
				t.Errorf("%s: recall %v, want 1 on a flood workload", name, recall)
			}
		}
	}
	if !strings.Contains(stdout.String(), "loopback") {
		t.Error("the report must say that traffic crossed the loopback interface")
	}
	var file resultFile
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Results) != len(workloads) || file.Seed != 2 || !file.Loopback {
		t.Errorf("result file: %d results, seed %d, loopback %v", len(file.Results), file.Seed, file.Loopback)
	}
	if n := file.Results[0].Metrics["last_p50_ms"].Samples; n == 0 {
		t.Error("timings in the result file must carry their sample count")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "tmp", "*")); len(left) != 0 {
		t.Errorf("teardown left %v behind", left)
	}
}

// TestQuickTraced runs the layer mode and the traced run and checks that
// every per-layer metric is reported and the span files are written.
func TestQuickTraced(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "all", "--seed", "1", "--trace", "1", "-quick", "-outdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want %d", len(lines), len(workloads))
	}
	for i, line := range lines {
		name := workloads[i].name
		if !line.Correct || line.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", name, line.Correct, line.Failed)
		}
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want exactly the %d per-layer ones", name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := line.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("%s: %s missing or in the wrong unit (%+v)", name, d.name, m)
			}
		}
		if v := *line.Metrics["transport.dropped_per_query"].Value; v != 0 {
			t.Errorf("%s: %v messages dropped per query", name, v)
		}
		if v := *line.Metrics["budget.accounted_share"].Value; v <= 0 {
			t.Errorf("%s: the budget accounts for %v of the CPU time", name, v)
		}
		var trace traceFile
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
			continue
		}
		hops, agentSpans := 0, 0
		for _, q := range trace.Queries {
			for _, h := range q.Hops {
				hops++
				agentSpans += len(h.Agent)
			}
		}
		if len(trace.Queries) == 0 || hops == 0 || agentSpans == 0 || len(trace.NetEvents) == 0 || len(trace.Conns) == 0 {
			t.Errorf("%s: trace has %d queries, %d hop spans, %d joined agent spans, %d socket events, %d connections",
				name, len(trace.Queries), hops, agentSpans, len(trace.NetEvents), len(trace.Conns))
		}
	}
	if v := *lines[1].Metrics["core.hop_us"].Value; v <= 0 {
		t.Errorf("reconfig-line must report core.hop_us, got %v", v)
	}
	if v := *lines[2].Metrics["qroute.base_hit_rate"].Value; v <= 0 {
		t.Errorf("zipf-cache must see base-cache hits, got rate %v", v)
	}
	for _, want := range []string{"per-query budget", "accounted", "serial model", "bench.trace_overhead_pct", "sim.agent_startup_ratio"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestContractMatchesMetricTables keeps BENCHMARK.json in step with the
// tables the harness reports from, and inside the driver's limits.
func TestContractMatchesMetricTables(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-contract"}, &stdout, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	if !bytes.Equal(committed, stdout.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -contract`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
	c := buildContract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the limits", len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	for _, w := range c.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	for _, m := range c.PerLayer {
		check(m.Name, m.Unit)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1…60", c.RunSeconds)
	}
}

// TestOracleRejectsWrongAnswers: verification is part of every run, so
// the verifier itself must catch what it claims to.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	spec := scanSpec(quickScale, 1)
	or := newOracle(spec, 2)
	f := &fleet{addrIdx: map[string]int{"a:1": 0, "b:1": 1}}
	var good []core.Answer
	var keyword string
	for _, obj := range spec.Objects(1) {
		if keyword == "" {
			keyword = obj.Keywords[0]
		}
		if obj.Keywords[0] == keyword {
			good = append(good, core.Answer{PeerAddr: "b:1", Result: agent.Result{Name: obj.Name, Data: obj.Data}})
		}
	}
	if or.expected(keyword, 0, true) != len(good) || or.expected(keyword, 0, false) < len(good) {
		t.Fatalf("expected(%q) disagrees with the generated objects", keyword)
	}
	if err := or.verify(f, keyword, good); err != nil {
		t.Fatalf("the true answer set was rejected: %v", err)
	}
	mutate := func(change func(a *core.Answer)) []core.Answer {
		bad := append([]core.Answer(nil), good...)
		change(&bad[0])
		return bad
	}
	for what, bad := range map[string][]core.Answer{
		"duplicate":     append(append([]core.Answer(nil), good...), good[0]),
		"wrong node":    mutate(func(a *core.Answer) { a.PeerAddr = "a:1" }),
		"unknown peer":  mutate(func(a *core.Answer) { a.PeerAddr = "c:1" }),
		"unknown name":  mutate(func(a *core.Answer) { a.Result.Name = "n1-object-9999" }),
		"short data":    mutate(func(a *core.Answer) { a.Result.Data = a.Result.Data[:10] }),
		"flipped byte":  mutate(func(a *core.Answer) { d := append([]byte(nil), a.Result.Data...); d[3] ^= 1; a.Result.Data = d }),
		"wrong keyword": nil,
	} {
		kw := keyword
		if what == "wrong keyword" {
			bad, kw = good, "kw-not-in-the-vocabulary"
		}
		if err := or.verify(f, kw, bad); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}
