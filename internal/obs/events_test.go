package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestEventsPageWireForm fences the /events JSON: every kind encodes as
// its plain name, and a kind this build does not declare (a newer
// member's) decodes and re-encodes byte for byte, so the observatory
// relays it unchanged.
func TestEventsPageWireForm(t *testing.T) {
	at := time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)
	page := EventsPage{
		Node: "n0",
		Events: []Event{
			{Seq: 4, At: at, Kind: EvJoined, Node: "n0", Count: 2},
			{Seq: 5, At: at, Kind: EvAgentDropped, Node: "n0", Peer: "n1", Reason: "expired"},
			{Seq: 6, At: at, Kind: EvAgentForwarded, Node: "n0", Query: "0a0b", Peer: "n1", Count: 3},
			{Seq: 7, At: at, Kind: EvReconfigured, Node: "n0", Query: "0a0b", Strategy: "maxcount", Count: 1,
				Scores: []PeerScore{{Addr: "n2", Answers: 3, Hops: 2, Rank: 1, Selected: true}}},
			{Seq: 8, At: at, Kind: EvPeerSuspect, Node: "n0", Peer: "n3"},
		},
		Next: 9, Missed: 4, Total: 9, Evicted: 4,
	}
	const want = `{"node":"n0","events":[` +
		`{"seq":4,"at":"2024-05-06T07:08:09Z","kind":"joined","node":"n0","count":2},` +
		`{"seq":5,"at":"2024-05-06T07:08:09Z","kind":"agent-dropped","node":"n0","peer":"n1","reason":"expired"},` +
		`{"seq":6,"at":"2024-05-06T07:08:09Z","kind":"agent-forwarded","node":"n0","query":"0a0b","peer":"n1","count":3},` +
		`{"seq":7,"at":"2024-05-06T07:08:09Z","kind":"reconfigured","node":"n0","query":"0a0b","strategy":"maxcount","count":1,` +
		`"scores":[{"addr":"n2","answers":3,"hops":2,"rank":1,"selected":true}]},` +
		`{"seq":8,"at":"2024-05-06T07:08:09Z","kind":"peer-suspect","node":"n0","peer":"n3"}],` +
		`"next":9,"missed":4,"total":9,"evicted":4}`
	got, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("page encodes as\n%s\nwant\n%s", got, want)
	}
	var back EventsPage
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	for i, e := range back.Events {
		if e.Kind != page.Events[i].Kind {
			t.Errorf("event %d decodes as kind %v, want %v", i, e.Kind, page.Events[i].Kind)
		}
	}

	const newer = `{"node":"n9","events":[` +
		`{"seq":0,"at":"2024-05-06T07:08:09Z","kind":"ring-rebalanced","node":"n9","count":4},` +
		`{"seq":1,"at":"2024-05-06T07:08:09Z","kind":"member-online","node":"n9","peer":"n1","reason":"probe"}],` +
		`"next":2,"missed":0,"total":2,"evicted":0}`
	var relayed EventsPage
	if err := json.Unmarshal([]byte(newer), &relayed); err != nil {
		t.Fatal(err)
	}
	if relayed.Events[1].Kind != EvMemberOnline {
		t.Errorf("declared kind decodes as %v, want %v", relayed.Events[1].Kind, EvMemberOnline)
	}
	again, err := json.Marshal(relayed)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != newer {
		t.Fatalf("undeclared kind re-encodes as\n%s\nwant\n%s", again, newer)
	}
}

func TestJournalSinceCursor(t *testing.T) {
	j := NewJournal("n0", 16)
	for i := 0; i < 5; i++ {
		j.Append(Event{Kind: EvQueryIssued, Query: fmt.Sprintf("q%d", i)})
	}

	events, next, missed := j.Since(0, 0)
	if len(events) != 5 || missed != 0 || next != 5 {
		t.Fatalf("Since(0) = %d events, next %d, missed %d; want 5, 5, 0", len(events), next, missed)
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Node != "n0" {
			t.Errorf("event %d not stamped with node: %+v", i, e)
		}
		if e.At.IsZero() {
			t.Errorf("event %d not timestamped", i)
		}
	}

	// Resume from the returned cursor: only newer events appear.
	j.Append(Event{Kind: EvQueryCompleted, Query: "q5"})
	events, next, missed = j.Since(next, 0)
	if len(events) != 1 || events[0].Query != "q5" || missed != 0 {
		t.Fatalf("resume read = %+v (missed %d), want just q5", events, missed)
	}
	// Reading again from the new cursor is empty, not an error.
	if events, _, _ = j.Since(next, 0); len(events) != 0 {
		t.Fatalf("read past end returned %d events", len(events))
	}

	// max limits a page; the cursor advances only past what was returned.
	events, next, _ = j.Since(0, 2)
	if len(events) != 2 || next != 2 {
		t.Fatalf("Since(0, max=2) = %d events, next %d; want 2, 2", len(events), next)
	}
}

func TestJournalOverflowAccounting(t *testing.T) {
	j := NewJournal("n0", 4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: EvAgentDropped, Reason: "expired"})
	}
	if j.Total() != 10 {
		t.Fatalf("Total = %d, want 10", j.Total())
	}
	if j.Evicted() != 6 {
		t.Fatalf("Evicted = %d, want 6", j.Evicted())
	}
	// A reader starting at zero missed everything the ring evicted.
	events, next, missed := j.Since(0, 0)
	if missed != 6 {
		t.Fatalf("missed = %d, want 6", missed)
	}
	if len(events) != 4 || events[0].Seq != 6 || next != 10 {
		t.Fatalf("retained window = %d events from seq %d, next %d; want 4 from 6, next 10",
			len(events), events[0].Seq, next)
	}
	// A reader inside the retained window misses nothing.
	if _, _, missed = j.Since(8, 0); missed != 0 {
		t.Fatalf("in-window read missed %d", missed)
	}
	// The page payload carries the same accounting.
	page := j.Page(0, 0)
	if page.Missed != 6 || page.Total != 10 || page.Evicted != 6 || page.Node != "n0" {
		t.Fatalf("page accounting = %+v", page)
	}
}

// TestJournalConcurrent hammers one journal from concurrent writers
// while readers page through it; run under -race. Every appended event
// must be either observed or accounted as missed — never silently gone.
func TestJournalConcurrent(t *testing.T) {
	const writers, perWriter = 8, 500
	j := NewJournal("n0", 64)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(Event{Kind: EvMessageDropped, Peer: fmt.Sprintf("w%d", w), Count: i})
			}
		}()
	}

	// A paging reader runs concurrently; its counts are validated after
	// the writers drain (mid-flight totals are racy by nature).
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		for seen := uint64(0); seen < writers*perWriter; {
			events, next, missed := j.Since(cursor, 16)
			seen += uint64(len(events)) + missed
			cursor = next
		}
	}()
	wg.Wait()
	<-done

	if total := j.Total(); total != writers*perWriter {
		t.Fatalf("Total = %d, want %d", total, writers*perWriter)
	}
	// Final read: observed + missed must exactly cover all appends.
	events, next, missed := j.Since(0, 0)
	if got := uint64(len(events)) + missed; got != writers*perWriter {
		t.Fatalf("observed %d + missed %d != appended %d", len(events), missed, writers*perWriter)
	}
	if next != j.Total() {
		t.Fatalf("next = %d, want %d", next, j.Total())
	}
	// Sequence numbers in the retained window are dense and ordered.
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("gap between seq %d and %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(Event{Kind: EvJoined}) // must not panic
	j.SetNode("x")
	j.SetLogger(nil)
	if j.Total() != 0 || j.Evicted() != 0 || j.Node() != "" {
		t.Fatal("nil journal reports non-zero state")
	}
	if events, next, missed := j.Since(3, 0); events != nil || next != 3 || missed != 0 {
		t.Fatalf("nil journal Since = %v, %d, %d", events, next, missed)
	}
}
