package observatory

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
)

// chaosNode boots one node on the fabric with the given transport
// options and an admin server, returning the node and its admin addr.
func chaosNode(t *testing.T, fab *faultnet.Fabric, name string, topts transport.Options) (*core.Node, string, *obs.AdminServer) {
	t.Helper()
	st, err := storm.Open(filepath.Join(t.TempDir(), name+".storm"), storm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(&storm.Object{Name: "music-" + name, Keywords: []string{"music"}, Data: []byte(name)})
	node, err := core.NewNode(core.Config{
		Network:    fab.Host(name),
		ListenAddr: name,
		Store:      st,
		MaxPeers:   8,
		// Roomy ring: journal overflow is a fault class of its own and
		// must not fire incidentally here.
		JournalCapacity: 4096,
		Transport:       topts,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := node.ServeAdmin("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		st.Close()
	})
	return node, srv.Addr(), srv
}

// alertKey identifies one alert transition for exact-set assertions.
type alertKey struct {
	kind   obs.EventKind
	rule   string
	member string
}

// drainAlerts reads the health journal past the cursor and returns the
// transition keys plus the advanced cursor.
func drainAlerts(h *Health, cursor uint64) ([]alertKey, uint64) {
	events, next, _ := h.Journal().Since(cursor, 0)
	var keys []alertKey
	for _, e := range events {
		keys = append(keys, alertKey{e.Kind, e.Reason, e.Node})
	}
	return keys, next
}

// scrapeUntil scrapes the fleet every 100ms until the health journal
// grows past cursor (returning the new transitions) or the deadline
// passes (returning nil).
func scrapeUntil(col *Collector, cursor uint64, deadline time.Duration) ([]alertKey, uint64) {
	end := time.Now().Add(deadline)
	for {
		col.Scrape()
		if keys, next := drainAlerts(col.health, cursor); len(keys) > 0 {
			return keys, next
		}
		if time.Now().After(end) {
			return nil, cursor
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestChaosFaultsRaiseExactAlerts is the health engine's contract,
// proven both ways: each injected fault class raises exactly its
// expected alert on exactly the afflicted member, and a lossy-but-
// healthy fleet (25% message drop, hysteresis engaged) raises none.
//
// Topology: a—b is the partition pair, s—h the saturation edge, d a
// loner whose admin endpoint will die. Fleet-wide alert transitions
// are asserted per phase through the health journal cursor, so an
// unexpected alert anywhere fails the phase that produced it.
func TestChaosFaultsRaiseExactAlerts(t *testing.T) {
	fab := faultnet.New(transport.NewInProc(), 23)

	// a and b detect failures fast (partition phase); s tolerates an
	// absurd failure count so saturation cannot leak a suspect-churn
	// alert; the dial timeout is the queue's drain clock.
	fastFail := transport.Options{
		FailThreshold: 2,
		BackoffBase:   50 * time.Millisecond,
	}
	patient := transport.Options{
		FailThreshold: 1 << 20,
		BackoffBase:   50 * time.Millisecond,
	}
	a, aAdmin, _ := chaosNode(t, fab, "chaos-a", fastFail)
	b, bAdmin, _ := chaosNode(t, fab, "chaos-b", fastFail)
	s, sAdmin, _ := chaosNode(t, fab, "chaos-s", patient)
	h, hAdmin, _ := chaosNode(t, fab, "chaos-h", fastFail)
	d, dAdmin, dSrv := chaosNode(t, fab, "chaos-d", fastFail)
	a.SetPeers([]core.Peer{{Addr: b.Addr()}})
	b.SetPeers([]core.Peer{{Addr: a.Addr()}})
	s.SetPeers([]core.Peer{{Addr: h.Addr()}})
	h.SetPeers([]core.Peer{{Addr: s.Addr()}})

	col := NewCollector(aAdmin, bAdmin, sAdmin, hAdmin, dAdmin)
	// Thresholds scaled to this fleet's scrape cadence (~100ms windows).
	// The cache-collapse hold outlasts the whole test on purpose: a
	// fresh fleet's cold cache is not a collapse, and proving that rule
	// needs the sustained-lookup regime of the churn bench.
	col.health.rules = []Rule{
		{Name: "member-down", Series: SigUp, Below: true, Fire: 0.5, Clear: 0.5},
		{Name: "suspect-churn", Series: sigSuspectChurnPerS,
			Fire: 0.5, Clear: 0.25, ClearHold: 200 * time.Millisecond},
		{Name: "send-queue-saturation", Series: sigSendQueueDepth,
			Fire: 24, Clear: 8, Hold: 400 * time.Millisecond},
		{Name: "journal-overflow", Series: sigJournalOverflowPerS,
			Fire: 50, Clear: 10, Hold: 400 * time.Millisecond},
		{Name: "cache-hit-collapse", Series: SigCacheHitRate, Below: true,
			Fire: 0.1, Clear: 0.3, Hold: 5 * time.Minute},
		{Name: "repair-surge", Series: SigRepairAddedPerS,
			Fire: 50, Clear: 10, Hold: 400 * time.Millisecond},
	}

	pump := func(base *core.Node, query string, n int) {
		for i := 0; i < n; i++ {
			// Failures are expected during fault phases; traffic is the point.
			_, _ = base.Query(&agent.KeywordAgent{Query: fmt.Sprintf("%s-%d", query, i)},
				core.QueryOptions{Timeout: 20 * time.Millisecond, WaitAnswers: 1})
		}
	}

	// Phase 0 — lossy but healthy: 25% of messages vanish, queries keep
	// flowing, and the engine must stay silent.
	fab.SetConfig(faultnet.Config{DropProb: 0.25})
	for i := 0; i < 10; i++ {
		_, _ = a.Query(&agent.KeywordAgent{Query: "music"},
			core.QueryOptions{Timeout: 100 * time.Millisecond, WaitAnswers: 2})
		col.Scrape()
		time.Sleep(100 * time.Millisecond)
	}
	cursor := uint64(0)
	if keys, _ := drainAlerts(col.health, cursor); len(keys) != 0 {
		t.Fatalf("false positives under 25%% loss: %+v", keys)
	}

	// Phase 1 — partition a from b. Query traffic from a fails fast,
	// b crosses a's suspect threshold, and exactly suspect-churn fires
	// on exactly member a.
	fab.Partition([]string{"chaos-a"}, []string{"chaos-b"})
	pump(a, "part", 5)
	keys, cursor := scrapeUntil(col, cursor, 3*time.Second)
	if len(keys) != 1 || keys[0] != (alertKey{obs.EvAlertRaised, "suspect-churn", aAdmin}) {
		t.Fatalf("partition transitions = %+v, want suspect-churn raised on %s", keys, aAdmin)
	}
	// The raise carries full provenance: series, value past threshold.
	events, _, _ := col.health.Journal().Since(0, 0)
	raise := events[len(events)-1]
	if raise.Strategy != sigSuspectChurnPerS || raise.Value <= raise.Threshold {
		t.Fatalf("raise provenance = %+v", raise)
	}
	// Heal; the suspect episode is over, so the next quiet windows
	// clear the alert — and nothing else transitions.
	fab.HealPartitions()
	keys, cursor = scrapeUntil(col, cursor, 3*time.Second)
	if len(keys) != 1 || keys[0] != (alertKey{obs.EvAlertCleared, "suspect-churn", aAdmin}) {
		t.Fatalf("heal transitions = %+v, want suspect-churn cleared on %s", keys, aAdmin)
	}

	// Phase 2 — saturate s's send queue: sever the live s—h conns, then
	// hang new dials so the queue drains one message per dial timeout
	// while query traffic keeps refilling it. Depth must stay over the
	// threshold for the hold, then exactly send-queue-saturation fires
	// on exactly member s.
	fab.HangDial("chaos-h")
	fab.Partition([]string{"chaos-s"}, []string{"chaos-h"})
	fab.HealPartitions() // partition only to sever the conns; dials now hang
	t.Cleanup(func() { fab.HealDial("chaos-h") })
	pump(s, "sat", 60)
	keys, cursor = scrapeUntil(col, cursor, 5*time.Second)
	if len(keys) != 1 || keys[0] != (alertKey{obs.EvAlertRaised, "send-queue-saturation", sAdmin}) {
		t.Fatalf("saturation transitions = %+v, want send-queue-saturation raised on %s", keys, sAdmin)
	}
	// Releasing the dials drains the queue and clears the alert.
	fab.HealDial("chaos-h")
	keys, cursor = scrapeUntil(col, cursor, 5*time.Second)
	if len(keys) != 1 || keys[0] != (alertKey{obs.EvAlertCleared, "send-queue-saturation", sAdmin}) {
		t.Fatalf("drain transitions = %+v, want send-queue-saturation cleared on %s", keys, sAdmin)
	}

	// Phase 3 — kill d's admin endpoint (the process, as the
	// observatory sees it). Exactly member-down fires on exactly d.
	dSrv.Close()
	d.Close()
	keys, cursor = scrapeUntil(col, cursor, 3*time.Second)
	if len(keys) != 1 || keys[0] != (alertKey{obs.EvAlertRaised, "member-down", dAdmin}) {
		t.Fatalf("kill transitions = %+v, want member-down raised on %s", keys, dAdmin)
	}

	// End state: member-down is the only firing alert, and the journal
	// holds no transitions beyond the ones each phase asserted.
	active := col.health.activeAlerts()
	if len(active) != 1 || active[0].Rule != "member-down" || active[0].Member != dAdmin {
		t.Fatalf("final active set = %+v", active)
	}
	if keys, _ := drainAlerts(col.health, cursor); len(keys) != 0 {
		t.Fatalf("unasserted transitions: %+v", keys)
	}
}
