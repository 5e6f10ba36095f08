package observatory

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/transport/faultnet"
)

// TestChaosSnapshotAccountsForLoss is the observatory's core guarantee:
// under injected message loss AND journal ring overflow (tiny capacity),
// the fleet snapshot still reconstructs the final topology exactly, and
// every event the collector did not see is accounted as missed — never
// silently absent. For each member:
//
//	collected(member) + missed(member) == journal.Total(member)
func TestChaosSnapshotAccountsForLoss(t *testing.T) {
	const n, journalCapacity = 4, 8
	fab := faultnet.New(transport.NewInProc(), 11)
	nodes := make([]*core.Node, n)
	admins := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := storm.Open(filepath.Join(t.TempDir(), fmt.Sprintf("n%d.storm", i)), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.Put(&storm.Object{
			Name:     fmt.Sprintf("music-%d", i),
			Keywords: []string{"music"},
			Data:     []byte{byte(i)},
		})
		node, err := core.NewNode(core.Config{
			Network:    fab.Host(fmt.Sprintf("node-%d", i)),
			ListenAddr: fmt.Sprintf("node-%d", i),
			Store:      st,
			MaxPeers:   8,
			// Tiny ring: the run MUST overflow, so the test exercises the
			// missed-event accounting, not just the happy path.
			JournalCapacity: journalCapacity,
			Transport: transport.Options{
				FailThreshold: 2,
				BackoffBase:   50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := node.ServeAdmin("")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		admins[i] = srv.Addr()
		t.Cleanup(func() {
			node.Close()
			st.Close()
		})
	}
	// Ring overlay; reconfiguration is free to rewrite it mid-test.
	for i := range nodes {
		nodes[i].SetPeers([]core.Peer{
			{Addr: nodes[(i+1)%n].Addr()},
			{Addr: nodes[(i+n-1)%n].Addr()},
		})
	}

	// Queries flow until some journal has overflowed: how many that takes
	// depends on what the drops let through, so it is a condition, not a
	// count (three rounds, then as many more as needed, bounded).
	overflown := func() bool {
		for _, node := range nodes {
			if node.Journal().Total() > journalCapacity {
				return true
			}
		}
		return false
	}
	fab.SetConfig(faultnet.Config{DropProb: 0.25})
	for round := 0; round < 3 || !overflown(); round++ {
		if round == 30 {
			t.Fatal("no journal overflowed in 30 query rounds")
		}
		if _, err := nodes[round%n].Query(&agent.KeywordAgent{Query: "music"}, core.QueryOptions{
			Timeout: 2 * time.Second, WaitAnswers: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Heal the network (admin HTTP is real TCP and was never faulted) and
	// wait for in-flight retries/suspicion churn to drain.
	fab.SetConfig(faultnet.Config{})

	totals := func() []uint64 {
		out := make([]uint64, n)
		for i, node := range nodes {
			out[i] = node.Journal().Total()
		}
		return out
	}
	col := NewCollector(admins...)
	var snap *FleetSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := totals()
		snap = col.Scrape()
		stable := true
		for i, after := range totals() {
			if after != before[i] {
				stable = false
			}
		}
		if stable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journals never quiesced")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Exact topology reconstruction from /peers, regardless of event loss.
	topo := snap.topology()
	for i, node := range nodes {
		want := node.PeerAddrs()
		got := topo[node.Addr()]
		if len(got) != len(want) {
			t.Fatalf("node %d topology = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d topology = %v, want %v", i, got, want)
			}
		}
	}

	// Loss accounting: collected + missed == journalled, per member.
	collected := make(map[string]uint64)
	for _, e := range snap.Events {
		collected[e.Node]++
	}
	var fleetMissed uint64
	overflowed := false
	for _, v := range snap.Nodes {
		if v.Err != "" {
			t.Fatalf("member %s scrape error: %s", v.Admin, v.Err)
		}
		var total uint64
		for _, node := range nodes {
			if node.Addr() == v.Node {
				total = node.Journal().Total()
			}
		}
		if total == 0 {
			t.Fatalf("member %s journalled nothing", v.Node)
		}
		if got := collected[v.Node] + v.EventsMissed; got != total {
			t.Fatalf("member %s: collected %d + missed %d = %d, journal total %d",
				v.Node, collected[v.Node], v.EventsMissed, got, total)
		}
		if v.EventsTotal != total {
			t.Fatalf("member %s reported total %d, journal says %d", v.Node, v.EventsTotal, total)
		}
		fleetMissed += v.EventsMissed
		if v.EventsMissed > 0 {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("no journal overflowed: the test did not exercise loss accounting")
	}
	if snap.Missed != fleetMissed {
		t.Fatalf("fleet missed %d, sum of members %d", snap.Missed, fleetMissed)
	}
}
