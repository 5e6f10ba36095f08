package observatory

import (
	"testing"
	"time"

	"bestpeer/internal/obs"
)

// ingestAt feeds one signal value at second sec and returns transitions.
func ingestAt(h *Health, member string, sec int, series string, v float64) []Alert {
	return h.Ingest(member, ts(sec), map[string]float64{series: v}, "")
}

func TestRuleHysteresisAndHold(t *testing.T) {
	rule := Rule{
		Name: "churn", Series: "sig",
		Fire: 10, Clear: 4,
		Hold: 2 * time.Second, ClearHold: 3 * time.Second,
	}
	h := NewHealth([]Rule{rule}, 0, 0)

	// Breach must persist for Hold before firing: a one-sample spike
	// (flap) does not fire.
	if tr := ingestAt(h, "m", 0, "sig", 15); len(tr) != 0 {
		t.Fatalf("fired before hold: %+v", tr)
	}
	if tr := ingestAt(h, "m", 1, "sig", 2); len(tr) != 0 {
		t.Fatalf("spike fired: %+v", tr)
	}
	// Sustained breach fires once the hold elapses, with Since at the
	// breach start.
	ingestAt(h, "m", 2, "sig", 20)
	ingestAt(h, "m", 3, "sig", 20)
	tr := ingestAt(h, "m", 4, "sig", 25)
	if len(tr) != 1 || !tr[0].Firing {
		t.Fatalf("sustained breach transitions = %+v", tr)
	}
	if !tr[0].Since.Equal(ts(2)) || tr[0].Value != 25 || tr[0].Threshold != 10 {
		t.Fatalf("fire provenance = %+v", tr[0])
	}
	if act := h.activeAlerts(); len(act) != 1 || act[0].Rule != "churn" || act[0].Member != "m" {
		t.Fatalf("active = %+v", act)
	}
	// Dead band (between Clear and Fire) neither clears nor re-fires.
	if tr := ingestAt(h, "m", 5, "sig", 7); len(tr) != 0 {
		t.Fatalf("dead band transitioned: %+v", tr)
	}
	// A dip below Clear that does not last ClearHold resets: oscillation
	// around the thresholds cannot flap the alert.
	ingestAt(h, "m", 6, "sig", 2)
	ingestAt(h, "m", 7, "sig", 12) // back above: clear-pending resets
	ingestAt(h, "m", 8, "sig", 2)
	if tr := ingestAt(h, "m", 10, "sig", 2); len(tr) != 0 {
		t.Fatalf("cleared before clear-hold: %+v", tr)
	}
	tr = ingestAt(h, "m", 11, "sig", 1)
	if len(tr) != 1 || tr[0].Firing {
		t.Fatalf("sustained recovery transitions = %+v", tr)
	}
	if len(h.activeAlerts()) != 0 {
		t.Fatalf("active after clear = %+v", h.activeAlerts())
	}

	// The journal holds exactly one raise and one clear, with provenance.
	events, _, _ := h.Journal().Since(0, 0)
	if len(events) != 2 {
		t.Fatalf("journal = %+v", events)
	}
	raise, clear := events[0], events[1]
	if raise.Kind != obs.EvAlertRaised || raise.Node != "m" ||
		raise.Reason != "churn" || raise.Strategy != "sig" ||
		raise.Value != 25 || raise.Threshold != 10 {
		t.Fatalf("raise event = %+v", raise)
	}
	if clear.Kind != obs.EvAlertCleared || clear.Threshold != 4 {
		t.Fatalf("clear event = %+v", clear)
	}
	if !raise.At.Equal(ts(4)) || !clear.At.Equal(ts(11)) {
		t.Fatalf("event times = %v %v", raise.At, clear.At)
	}
}

func TestBelowRuleAndExemplar(t *testing.T) {
	rule := Rule{
		Name: "hit-collapse", Series: SigCacheHitRate, Below: true,
		Fire: 0.1, Clear: 0.3, Hold: 0, ClearHold: 0,
	}
	h := NewHealth([]Rule{rule}, 0, 0)
	// A missing signal (no lookups in the window) must not evaluate.
	if tr := h.Ingest("m", ts(0), map[string]float64{SigUp: 1}, ""); len(tr) != 0 {
		t.Fatalf("missing signal evaluated: %+v", tr)
	}
	// Zero hold fires on first breach and carries the exemplar through
	// to the alert and its journal event.
	tr := h.Ingest("m", ts(1), map[string]float64{SigCacheHitRate: 0.02}, "trace-42")
	if len(tr) != 1 || !tr[0].Firing || tr[0].Exemplar != "trace-42" {
		t.Fatalf("below-rule fire = %+v", tr)
	}
	events, _, _ := h.Journal().Since(0, 0)
	if len(events) != 1 || events[0].Query != "trace-42" {
		t.Fatalf("journal exemplar = %+v", events)
	}
	// Dead band (0.2) holds; recovery at ≥ Clear clears.
	if tr := h.Ingest("m", ts(2), map[string]float64{SigCacheHitRate: 0.2}, ""); len(tr) != 0 {
		t.Fatalf("dead band transitioned: %+v", tr)
	}
	tr = h.Ingest("m", ts(3), map[string]float64{SigCacheHitRate: 0.5}, "")
	if len(tr) != 1 || tr[0].Firing {
		t.Fatalf("below-rule clear = %+v", tr)
	}
}

func TestHealthView(t *testing.T) {
	h := NewHealth([]Rule{{Name: "down", Series: SigUp, Below: true, Fire: 0.5, Clear: 0.5}}, 0, 0)
	h.Ingest("a", ts(1), map[string]float64{SigUp: 1, sigSendQueueDepth: 3}, "")
	h.Ingest("b", ts(2), map[string]float64{SigUp: 0}, "")
	v := h.view()
	if !v.At.Equal(ts(2)) || len(v.Rules) != 1 {
		t.Fatalf("view = %+v", v)
	}
	if v.Members["a"].Signals[sigSendQueueDepth] != 3 || len(v.Members["a"].Alerts) != 0 {
		t.Fatalf("member a = %+v", v.Members["a"])
	}
	mb := v.Members["b"]
	if mb.Signals[SigUp] != 0 || len(mb.Alerts) != 1 || mb.Alerts[0].Rule != "down" {
		t.Fatalf("member b = %+v", mb)
	}
	if len(v.Active) != 1 || v.Active[0].Member != "b" {
		t.Fatalf("active = %+v", v.Active)
	}
}

func TestDeriveSignals(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("bestpeer_qroute_cache_hits_total", "h", obs.L("where", "base"))
	misses := reg.Counter("bestpeer_qroute_cache_misses_total", "m")
	repairs := reg.Counter("bestpeer_node_repair_peers_added_total", "r")
	depth := 0.0
	reg.GaugeFunc("bestpeer_transport_send_queue_depth", "d", func() float64 { return depth })
	hits.Add(10)
	misses.Add(10)
	prev := memberSample{At: ts(0), Up: true, Metrics: reg.Snapshot()}

	hits.Add(6)
	misses.Add(2)
	repairs.Add(20)
	depth = 40
	cur := memberSample{
		At: ts(10), Up: true, Metrics: reg.Snapshot(),
		Events: []obs.Event{
			{Kind: obs.EvPeerSuspect}, {Kind: obs.EvPeerSuspect}, {Kind: obs.EvPeerAdded},
		},
		Evicted: 30,
	}
	sig := deriveSignals(prev, cur)
	if sig[SigUp] != 1 || sig[sigSendQueueDepth] != 40 {
		t.Fatalf("levels = %+v", sig)
	}
	if sig[sigSuspectChurnPerS] != 0.2 {
		t.Fatalf("suspect churn = %v, want 0.2", sig[sigSuspectChurnPerS])
	}
	if sig[sigJournalOverflowPerS] != 3 {
		t.Fatalf("overflow = %v, want 3", sig[sigJournalOverflowPerS])
	}
	// Window deltas: 6 hits, 2 misses -> 0.75; 20 repairs over 10s -> 2/s.
	if sig[SigCacheHitRate] != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", sig[SigCacheHitRate])
	}
	if sig[SigRepairAddedPerS] != 2 {
		t.Fatalf("repair rate = %v, want 2", sig[SigRepairAddedPerS])
	}

	// No lookups in the window: the hit-rate signal is absent, not zero,
	// so a cold cache cannot fake a collapse.
	idle := memberSample{At: ts(20), Up: true, Metrics: reg.Snapshot(), Evicted: 30}
	sig = deriveSignals(cur, idle)
	if _, ok := sig[SigCacheHitRate]; ok {
		t.Fatalf("idle window emitted hit rate: %+v", sig)
	}
	if sig[sigSuspectChurnPerS] != 0 || sig[sigJournalOverflowPerS] != 0 {
		t.Fatalf("idle rates = %+v", sig)
	}

	// A down member yields only up=0 — stale levels must not feed rules.
	sig = deriveSignals(cur, memberSample{At: ts(30), Up: false})
	if len(sig) != 1 || sig[SigUp] != 0 {
		t.Fatalf("down signals = %+v", sig)
	}

	// First sample of a member: levels only, no rates.
	sig = deriveSignals(memberSample{}, cur)
	if _, ok := sig[sigSuspectChurnPerS]; ok {
		t.Fatalf("first sample emitted rates: %+v", sig)
	}
	if sig[sigSendQueueDepth] != 40 {
		t.Fatalf("first sample levels = %+v", sig)
	}
}
