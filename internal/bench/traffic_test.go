package bench

import "testing"

// TestTrafficSelectiveBeatsFlood is the PR's acceptance check: after the
// warmup round, the answer cache + selective routing must send
// measurably fewer messages than flooding while giving up none of the
// flood's recall — including across the mid-run store mutations that
// force it off the warm cache.
func TestTrafficSelectiveBeatsFlood(t *testing.T) {
	tr := traffic(DefaultCost(), 1)
	if len(tr.Flood) != trafficRounds || len(tr.QRoute) != trafficRounds {
		t.Fatalf("rounds = %d/%d, want %d each", len(tr.Flood), len(tr.QRoute), trafficRounds)
	}
	if tr.Expected == 0 {
		t.Fatal("workload planted no reachable answers")
	}
	for i := range tr.Flood {
		f, q := tr.Flood[i], tr.QRoute[i]
		if f.Answers != tr.Expected {
			t.Fatalf("round %d: flood recall %d, want %d", f.Round, f.Answers, tr.Expected)
		}
		if q.Answers < f.Answers {
			t.Fatalf("round %d (%s): qroute recall %d < flood recall %d",
				q.Round, q.Route, q.Answers, f.Answers)
		}
		if i == 0 {
			// Warmup: the cold engine must behave exactly like a flood.
			if q.Route != "flood" || q.Msgs != f.Msgs {
				t.Fatalf("warmup round must flood identically: route=%s msgs=%d vs %d",
					q.Route, q.Msgs, f.Msgs)
			}
			continue
		}
		if q.Msgs >= f.Msgs {
			t.Fatalf("round %d (%s): qroute sent %d msgs, flood sent %d — no saving",
				q.Round, q.Route, q.Msgs, f.Msgs)
		}
	}
	// The schedule itself: unchanged repeats hit the cache, post-mutation
	// rounds take the learned selective route.
	for i, want := range []string{"flood", "cached", "selective", "cached", "selective", "cached"} {
		if got := tr.QRoute[i].Route; got != want {
			t.Fatalf("round %d route = %q, want %q (schedule %+v)", i+1, got, want, tr.QRoute)
		}
	}
	if tr.QRouteMsgs >= tr.FloodMsgs {
		t.Fatalf("totals: qroute %d msgs vs flood %d", tr.QRouteMsgs, tr.FloodMsgs)
	}
}
