package transport

import (
	"testing"
	"time"

	"bestpeer/internal/wire"
)

// TestForgetReleasesDestinationState pins the lifecycle contract the
// core node's Leave/Depart paths rely on: Forget frees the send queue
// and worker for a departed peer, reports whether state existed, and a
// later Send to the same address starts fresh.
func TestForgetReleasesDestinationState(t *testing.T) {
	nw := NewInProc()
	c := newCollector()
	recv, err := NewMessenger(nw, "fr-recv", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	snd, err := NewMessenger(nw, "fr-snd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	if snd.Forget("fr-recv") {
		t.Fatal("Forget before any Send reported state")
	}
	if err := snd.Send("fr-recv", env(wire.KindAgent, "one")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 1)
	if !snd.Forget("fr-recv") {
		t.Fatal("Forget after Send reported no state")
	}
	snd.mu.Lock()
	queues := len(snd.outs)
	snd.mu.Unlock()
	if queues != 0 {
		t.Fatalf("outs retained %d queues after Forget", queues)
	}
	if snd.Forget("fr-recv") {
		t.Fatal("second Forget reported state")
	}
	// The address is usable again immediately.
	if err := snd.Send("fr-recv", env(wire.KindAgent, "two")); err != nil {
		t.Fatal(err)
	}
	got := c.waitFor(t, 2)
	if string(got[1].Body) != "two" {
		t.Fatalf("post-Forget delivery = %q", got[1].Body)
	}
}

// TestForgetClearsSuspectState drives a destination into backoff via the
// failure detector, then checks Forget wipes the suspect marker — a
// departed peer's address must not poison a future node that reuses it.
// suspect reports whether the destination is inside its backoff window.
func suspect(m *Messenger, to string) bool {
	m.mu.Lock()
	q, ok := m.outs[to]
	m.mu.Unlock()
	if !ok {
		return false
	}
	_, in := q.suspended()
	return in
}

func TestForgetClearsSuspectState(t *testing.T) {
	nw := NewInProc()
	transitions := make(chan bool, 8)
	snd, err := NewMessengerOpts(nw, "fs-snd", nil, Options{
		FailThreshold: 1,
		BackoffBase:   time.Hour, // stay suspect for the whole test
		OnSuspect:     func(_ string, suspect bool) { transitions <- suspect },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	// Nobody listens on "ghost": the first delivery fails and, with
	// FailThreshold 1, marks the destination suspect.
	if err := snd.Send("ghost", env(wire.KindAgent, "x")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-transitions:
		if !s {
			t.Fatal("first transition was suspect=false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no suspect transition after failed delivery")
	}
	if !suspect(snd, "ghost") {
		t.Fatal("destination not suspect after threshold failures")
	}
	if !snd.Forget("ghost") {
		t.Fatal("Forget reported no state for suspect destination")
	}
	if suspect(snd, "ghost") {
		t.Fatal("suspect state survived Forget")
	}
}

// TestOnSuspectRecoveryTransition checks the failure detector reports
// both edges: suspect=true when a destination crosses the failure
// threshold and suspect=false once a delivery succeeds again — the
// signal the core repair loop keys off.
func TestOnSuspectRecoveryTransition(t *testing.T) {
	nw := NewInProc()
	transitions := make(chan bool, 16)
	snd, err := NewMessengerOpts(nw, "rt-snd", nil, Options{
		FailThreshold: 1,
		BackoffBase:   10 * time.Millisecond,
		OnSuspect:     func(_ string, suspect bool) { transitions <- suspect },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	if err := snd.Send("rt-late", env(wire.KindAgent, "early")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-transitions:
		if !s {
			t.Fatal("first transition was suspect=false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no suspect transition")
	}

	// The peer comes up; keep sending (sends during backoff are dropped
	// with errPeerSuspect) until one gets through and clears the mark.
	c := newCollector()
	recv, err := NewMessenger(nw, "rt-late", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		_ = snd.Send("rt-late", env(wire.KindAgent, "retry")) // errPeerSuspect during backoff is expected
		select {
		case s := <-transitions:
			if s {
				t.Fatal("second suspect=true transition without an intervening recovery")
			}
			recovered = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !recovered {
		t.Fatal("no recovery transition after the peer came up")
	}
	if suspect(snd, "rt-late") {
		t.Fatal("destination still suspect after successful delivery")
	}
}

// TestFailingOutlivesBackoffWindow pins the health signal the repair
// loop keys off: Failing stays true after the suspect backoff window
// expires (only a successful delivery clears it), because a repair round
// sampling seconds after the failure must still see the dead peer.
func TestFailingOutlivesBackoffWindow(t *testing.T) {
	nw := NewInProc()
	transitions := make(chan bool, 8)
	snd, err := NewMessengerOpts(nw, "fw-snd", nil, Options{
		FailThreshold: 1,
		BackoffBase:   5 * time.Millisecond, // expires long before the assertions
		OnSuspect:     func(_ string, suspect bool) { transitions <- suspect },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	if snd.Failing("fw-dead") {
		t.Fatal("Failing before any Send")
	}
	if err := snd.Send("fw-dead", env(wire.KindAgent, "x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-transitions:
	case <-time.After(5 * time.Second):
		t.Fatal("no suspect transition after failed delivery")
	}

	// Out-wait the backoff window: Suspect forgives, Failing must not.
	time.Sleep(50 * time.Millisecond)
	if suspect(snd, "fw-dead") {
		t.Fatal("still inside backoff window; test timing too tight")
	}
	if !snd.Failing("fw-dead") {
		t.Fatal("Failing reset when the backoff window expired")
	}

	// A successful delivery is the one thing that clears it.
	c := newCollector()
	recv, err := NewMessenger(nw, "fw-dead", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for snd.Failing("fw-dead") && time.Now().Before(deadline) {
		_ = snd.Send("fw-dead", env(wire.KindAgent, "retry")) // dropped while in backoff is fine
		time.Sleep(10 * time.Millisecond)
	}
	if snd.Failing("fw-dead") {
		t.Fatal("Failing survived a successful delivery")
	}
}
