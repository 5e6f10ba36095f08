package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, now float64
		dir       string
		bound     float64
		want      string
	}{
		{"lower: small rise is within", 100, 109, "lower", 0.10, within},
		{"lower: rise past the bound is worse", 100, 111, "lower", 0.10, worse},
		{"lower: fall past the bound is better", 100, 89, "lower", 0.10, better},
		{"higher: small fall is within", 50, 46, "higher", 0.10, within},
		{"higher: fall past the bound is worse", 50, 44, "higher", 0.10, worse},
		{"higher: rise past the bound is better", 50, 56, "higher", 0.10, better},
		{"unchanged", 30, 30, "lower", 0.02, within},
	} {
		if got := judge(tc.base, tc.now, tc.dir, tc.bound); got != tc.want {
			t.Errorf("%s: judge(%v, %v, %s, %v) = %s, want %s", tc.name, tc.base, tc.now, tc.dir, tc.bound, got, tc.want)
		}
	}
}

func TestCompareCountsWorseRowsAndFailedShare(t *testing.T) {
	c := contract{EndToEnd: []metricBound{
		{Name: "last_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	c.Workloads = append(c.Workloads, struct {
		Name string `json:"name"`
	}{"flood-scan"})
	on := func(workload string, last, qps float64, failed int) resultFile {
		return resultFile{Results: []workloadResult{{
			Workload: workload, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"last_p50_ms": {last, "ms"}, "queries_per_s": {qps, "1/s"}},
		}}}
	}
	res := func(last, qps float64, failed int) resultFile { return on("flood-scan", last, qps, failed) }
	var out bytes.Buffer
	if bad := compare(&out, c, res(40, 47, 0), res(41, 46, 0)); bad != 0 {
		t.Fatalf("within-bound move counted %d worse rows:\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compare(&out, c, res(40, 47, 0), res(50, 40, 1)); bad != 3 {
		t.Fatalf("want 3 worse rows (latency, throughput, failed share), got %d:\n%s", bad, out.String())
	}
	for _, want := range []string{"+25.00%", "-14.89%", "failed share rose from 0/100 to 1/100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	// A workload BENCHMARK.json does not list is shown, never judged on
	// its metrics; a rise in its failed share still counts.
	out.Reset()
	if bad := compare(&out, c, on("zipf-cache", 40, 47, 0), on("zipf-cache", 50, 40, 0)); bad != 0 {
		t.Fatalf("an unlisted workload's metrics were judged (%d worse):\n%s", bad, out.String())
	}
	if n := strings.Count(out.String(), "not gated"); n != 2 {
		t.Errorf("want both rows marked not gated, got %d:\n%s", n, out.String())
	}
	out.Reset()
	if bad := compare(&out, c, res(40, 47, 0), resultFile{}); bad != 1 {
		t.Fatalf("a workload missing from the second file must count as worse, got %d", bad)
	}
}
