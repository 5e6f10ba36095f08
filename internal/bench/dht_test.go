package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// testDHTParams scales the churn leg down to the tier-1 budget; the
// static leg already runs at the committed 64-node scale.
func testDHTParams() dhtParams {
	p := defaultDHTParams()
	p.Churn = testChurnParams()
	return p
}

// assertDHTClaims checks the T4 acceptance claims on a result — shared
// between the fresh-run test and the committed-JSON test so the figure
// on disk is held to exactly what the experiment promises.
func assertDHTClaims(t *testing.T, res *dhtResult) {
	t.Helper()
	chdE := res.StaticRun("chd", "exact")
	floodE := res.StaticRun("flood", "exact")
	chdK := res.StaticRun("chd", "keyword")
	floodK := res.StaticRun("flood", "keyword")
	bprK := res.StaticRun("bpr", "keyword")
	if chdE == nil || floodE == nil || chdK == nil || floodK == nil || bprK == nil {
		t.Fatalf("missing static cells in %+v", res.Static)
	}

	// Exact-key: chord finds everything in ≤ ceil(log2 N)+1 mean hops
	// and spends fewer messages than the flood at equal recall.
	if chdE.Recall != 1 {
		t.Errorf("chd exact recall %.3f, want 1", chdE.Recall)
	}
	if floodE.Recall != 1 {
		t.Errorf("flood exact recall %.3f, want 1 (equal-recall baseline)", floodE.Recall)
	}
	if bound := float64(res.HopBound); chdE.MeanHops > bound {
		t.Errorf("chd exact mean hops %.2f > bound %.0f", chdE.MeanHops, bound)
	}
	if chdE.Msgs >= floodE.Msgs {
		t.Errorf("chd exact sent %d msgs, flood %d; the DHT saved nothing", chdE.Msgs, floodE.Msgs)
	}

	// Keyword: the partial index caps chord's recall below BPR's, which
	// reaches every holder — keyword workloads still favor BPR.
	if floodK.Recall != 1 {
		t.Errorf("flood keyword recall %.3f, want 1", floodK.Recall)
	}
	if bprK.Recall <= chdK.Recall {
		t.Errorf("bpr keyword recall %.3f <= chd %.3f; BPR should win keyword search", bprK.Recall, chdK.Recall)
	}

	// Churn: all three schemes ran the shared trace and produced
	// samples; the flood reference stayed healthy.
	for _, scheme := range []string{"chd", "bpr", "flood"} {
		run := res.ChurnRun(scheme)
		if run == nil || len(run.Samples) == 0 {
			t.Fatalf("churn run %q missing or empty", scheme)
		}
	}
	if flood := res.ChurnRun("flood"); flood.MeanRecall < 0.95 {
		t.Errorf("flood churn mean recall %.3f; the reference itself is broken", flood.MeanRecall)
	}
	if chd := res.ChurnRun("chd"); chd.MeanRecall < 0.5 {
		t.Errorf("chd churn mean recall %.3f; the ring is not routing", chd.MeanRecall)
	}
}

func TestDHT(t *testing.T) {
	res := dht(testDHTParams(), 1)
	for _, sr := range res.Static {
		t.Logf("static %-6s %-8s recall=%.3f hops=%.2f msgs=%d bytes=%d",
			sr.Scheme, sr.Workload, sr.Recall, sr.MeanHops, sr.Msgs, sr.Bytes)
	}
	for _, sr := range res.Churn {
		t.Logf("churn %-6s mean=%.3f final=%.3f postmin=%.3f msgs=%d",
			sr.Scheme, sr.MeanRecall, sr.FinalRecall, sr.PostBurstMinRecall, sr.Msgs)
	}
	assertDHTClaims(t, res)

	// The chord maintenance traffic undercuts the flood's query traffic
	// on the same trace.
	if chd, flood := res.ChurnRun("chd"), res.ChurnRun("flood"); chd.Msgs >= flood.Msgs {
		t.Errorf("chd churn sent %d msgs, flood %d", chd.Msgs, flood.Msgs)
	}
}

// TestBenchPR10JSON holds the committed figure file to the same claims
// as a fresh run: the acceptance numbers are asserted where they are
// published.
func TestBenchPR10JSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Skipf("committed figure not present: %v", err)
	}
	var report Report
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatalf("BENCH_PR10.json: %v", err)
	}
	if report.DHT == nil {
		t.Fatal("BENCH_PR10.json has no dht section")
	}
	if report.DHT.Nodes != defaultDHTParams().Nodes {
		t.Errorf("committed run used %d nodes, default is %d", report.DHT.Nodes, defaultDHTParams().Nodes)
	}
	if report.DHT.ChurnNodes != defaultChurnParams().Nodes {
		t.Errorf("committed churn used %d nodes, default is %d", report.DHT.ChurnNodes, defaultChurnParams().Nodes)
	}
	assertDHTClaims(t, report.DHT)
}
