package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/reconfig"
	"bestpeer/internal/topology"
)

// TestLiveMetricsSectionAccountsForTraffic runs one live round and checks
// the report's metrics section reflects it: messages flowed, agents
// executed, and the base's answer-hop histogram saw every answer batch.
func TestLiveMetricsSectionAccountsForTraffic(t *testing.T) {
	spec := liveSpec()
	query := spec.Keyword(2)
	lc, err := NewLiveCluster(topology.Star(4), spec, query, reconfig.Static{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.RunRound(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	m := lc.Metrics()
	if m.MessagesSent == 0 {
		t.Fatal("metrics section shows no messages sent after a live round")
	}
	if m.AgentsExecuted == 0 {
		t.Fatal("metrics section shows no agents executed")
	}
	if m.Base == nil || m.Base.Family("bestpeer_node_answer_hops") == nil {
		t.Fatal("base registry snapshot missing the answer-hop histogram")
	}
	var batches uint64
	for _, b := range m.AnswerHops {
		if b.Count > batches {
			batches = b.Count
		}
	}
	if batches == 0 {
		t.Fatal("answer-hop histogram recorded no batches")
	}
}

// TestReportWriteFile round-trips a report through JSON and checks the
// metrics section survives.
func TestReportWriteFile(t *testing.T) {
	spec := liveSpec()
	query := spec.Keyword(2)
	lc, err := NewLiveCluster(topology.Star(4), spec, query, reconfig.Static{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	res, err := lc.RunRound(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	run := &SchemeRun{Scheme: "static"}
	run.AddRound(res)
	run.Metrics = lc.Metrics()
	rep := &Report{Seed: 11, Live: []*SchemeRun{run}}
	rep.Figures = append(rep.Figures, fig5a(DefaultCost(), 1))

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Live) != 1 || back.Live[0].Metrics.MessagesSent == 0 {
		t.Fatalf("metrics section lost in round-trip: %+v", back.Live)
	}
	if len(back.Figures) != 1 || len(back.Figures[0].Series) == 0 {
		t.Fatal("figures lost in round-trip")
	}
	if len(back.Live[0].Rounds) != 1 || back.Live[0].Rounds[0].Answers != res.TotalAnswers {
		t.Fatalf("rounds lost in round-trip: %+v", back.Live[0].Rounds)
	}
}
