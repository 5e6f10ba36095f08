package bench

import (
	"testing"
	"time"
)

// testChurnParams scales the committed-figure configuration down to a
// tier-1 budget (~0.2s) while keeping the flood near its coverage edge,
// where erosion is visible.
func testChurnParams() churnParams {
	p := defaultChurnParams()
	p.Nodes = 2000
	p.Horizon = 90 * time.Second
	p.BurstAt = 45 * time.Second
	p.Bases = 8
	p.Keywords = 4
	p.HoldersPerKeyword = 20
	return p
}

func TestChurnSchemes(t *testing.T) {
	res := churn(testChurnParams(), 1)
	bpr := res.SchemeByName("bpr")
	bps := res.SchemeByName("bps")
	flood := res.SchemeByName("flood")
	if bpr == nil || bps == nil || flood == nil {
		t.Fatalf("missing scheme in %+v", res)
	}
	for _, r := range res.Schemes {
		t.Logf("%s: mean=%.3f final=%.3f postmin=%.3f conv=%d msgs=%d repairs=%d hints=%d departs=%d cache=%d/%d",
			r.Scheme, r.MeanRecall, r.FinalRecall, r.PostBurstMinRecall, r.RepairConvergenceRounds,
			r.Msgs, r.Repairs, r.HintAdopts, r.DepartsDelivered, r.CacheHits, r.CacheLookups)
	}

	// The flood is the recall reference; it must itself be healthy.
	if flood.MeanRecall < 0.95 {
		t.Fatalf("flood mean recall %.3f; the reference itself is broken", flood.MeanRecall)
	}
	// The headline acceptance bound: reconfigurable BestPeer under churn
	// keeps recall within 5 points of exhaustive flooding.
	if bpr.MeanRecall < flood.MeanRecall-0.05 {
		t.Errorf("bpr mean recall %.3f < flood %.3f - 0.05", bpr.MeanRecall, flood.MeanRecall)
	}
	if bpr.FinalRecall < flood.FinalRecall-0.05 {
		t.Errorf("bpr final recall %.3f < flood %.3f - 0.05", bpr.FinalRecall, flood.FinalRecall)
	}
	// ...while spending less traffic (answer cache + selective routing).
	if bpr.Msgs >= flood.Msgs {
		t.Errorf("bpr sent %d msgs, flood %d; qroute saved nothing", bpr.Msgs, flood.Msgs)
	}
	// Repair must converge after the correlated burst.
	if bpr.RepairConvergenceRounds < 0 {
		t.Errorf("bpr never reconverged after the burst")
	}
	// The lifecycle machinery actually ran: graceful leaves delivered
	// Depart notices, hints seeded repairs, the cache served hits.
	if bpr.DepartsDelivered == 0 || bpr.HintAdopts == 0 || bpr.Repairs == 0 || bpr.CacheHits == 0 {
		t.Errorf("lifecycle counters flat: %+v", *bpr)
	}
	// The static scheme neither probes nor backfills...
	if bps.Repairs != 0 || bps.HintAdopts != 0 {
		t.Errorf("bps repaired: %+v", *bps)
	}
	// ...and pays for it: its post-burst trough is no better than the
	// repaired flood's.
	if bps.PostBurstMinRecall > flood.PostBurstMinRecall {
		t.Errorf("bps post-burst min %.3f better than repaired flood %.3f",
			bps.PostBurstMinRecall, flood.PostBurstMinRecall)
	}

	// The health engine rode the whole run. Every round produced a recall
	// and repair-rate sample on the simulated clock.
	for _, r := range res.Schemes {
		if r.Health == nil {
			t.Fatalf("%s has no health timeline", r.Scheme)
		}
		for _, series := range []string{"recall", "repair_added_per_s", "alive"} {
			if n := len(r.Health.Series[series]); n != len(r.Samples) {
				t.Errorf("%s health series %s has %d points, want %d",
					r.Scheme, series, n, len(r.Samples))
			}
		}
		// A healthy cache never collapses; the alert must not misfire on
		// cold or quiet windows (bps and flood have no cache at all).
		if hits := r.Health.AlertsFor("cache-hit-collapse"); len(hits) != 0 {
			t.Errorf("%s cache-hit-collapse misfired: %+v", r.Scheme, hits)
		}
	}
	// The burst shows up as alerts with full provenance, then clears:
	// recall-floor on bpr dips after the burst and recovers (the alert
	// view of RepairConvergenceRounds)...
	floor := bpr.Health.AlertsFor("recall-floor")
	if len(floor) < 2 || !floor[0].Firing || floor[0].TMS <= res.BurstAtMS {
		t.Fatalf("bpr recall-floor should first fire after the burst: %+v", floor)
	}
	if last := floor[len(floor)-1]; last.Firing {
		t.Errorf("bpr recall-floor never cleared: %+v", floor)
	}
	if floor[0].Value >= floor[0].Threshold || floor[0].Series != "recall" {
		t.Errorf("recall-floor raise lacks provenance: %+v", floor[0])
	}
	// ...repair-surge catches the burst's backfill spike on the schemes
	// that repair, and clears once the overlay is rebuilt...
	for _, r := range []*churnSchemeRun{bpr, flood} {
		surge := r.Health.AlertsFor("repair-surge")
		burstRaise := false
		for _, a := range surge {
			if a.Firing && a.TMS > res.BurstAtMS {
				burstRaise = true
			}
		}
		if !burstRaise {
			t.Errorf("%s repair-surge missed the burst: %+v", r.Scheme, surge)
		}
		if len(surge) == 0 || surge[len(surge)-1].Firing {
			t.Errorf("%s repair-surge never cleared: %+v", r.Scheme, surge)
		}
	}
	// ...while the static scheme repairs nothing and so alerts nothing:
	// erosion is invisible to a repair-rate signal, which is exactly the
	// operational argument for running the reconfigurable scheme.
	if len(bps.Health.AlertsFor("repair-surge")) != 0 {
		t.Errorf("bps raised repair-surge without a repair loop: %+v", bps.Health.Alerts)
	}
}

func TestChurnDeterministic(t *testing.T) {
	p := testChurnParams()
	p.Nodes = 500
	p.Horizon = 45 * time.Second
	p.BurstAt = 24 * time.Second
	a := churn(p, 7)
	b := churn(p, 7)
	for i := range a.Schemes {
		ra, rb := a.Schemes[i], b.Schemes[i]
		if ra.Msgs != rb.Msgs || ra.MeanRecall != rb.MeanRecall || len(ra.Samples) != len(rb.Samples) {
			t.Fatalf("scheme %s not reproducible: %+v vs %+v", ra.Scheme, ra, rb)
		}
		for j := range ra.Samples {
			if ra.Samples[j] != rb.Samples[j] {
				t.Fatalf("%s sample %d differs: %+v vs %+v", ra.Scheme, j, ra.Samples[j], rb.Samples[j])
			}
		}
		// The health timeline is part of the reproducible record.
		if len(ra.Health.Alerts) != len(rb.Health.Alerts) {
			t.Fatalf("%s alert count differs: %+v vs %+v", ra.Scheme, ra.Health.Alerts, rb.Health.Alerts)
		}
		for j := range ra.Health.Alerts {
			if ra.Health.Alerts[j] != rb.Health.Alerts[j] {
				t.Fatalf("%s alert %d differs: %+v vs %+v",
					ra.Scheme, j, ra.Health.Alerts[j], rb.Health.Alerts[j])
			}
		}
	}
}
