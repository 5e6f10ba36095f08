package liglo

import (
	"errors"
	"testing"

	"bestpeer/internal/obs"
)

// countKinds tallies journal events by kind for assertions.
func countKinds(j *obs.Journal) map[obs.EventKind]int {
	out := map[obs.EventKind]int{}
	events, _, _ := j.Since(0, 0)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// TestDeregisterMarksOfflineImmediately pins the graceful-leave contract:
// a member's own announcement flips it offline without waiting for a
// probe sweep, the BPID survives for a later Rejoin, and the server's
// journal and counters record the transition.
func TestDeregisterMarksOfflineImmediately(t *testing.T) {
	j := obs.NewJournal("liglo-1", 64)
	_, srv, cli := newPair(t, ServerConfig{Journal: j})
	id, _, err := cli.Register(srv.Addr(), "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Deregister(id); err != nil {
		t.Fatal(err)
	}
	addr, online, err := cli.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if online || addr != "node-1" {
		t.Fatalf("after deregister: addr=%q online=%v, want node-1 offline", addr, online)
	}
	if got := srv.Stats().Deregisters; got != 1 {
		t.Fatalf("Deregisters = %d, want 1", got)
	}
	kinds := countKinds(j)
	if kinds[obs.EvMemberDeregistered] != 1 {
		t.Fatalf("journal deregistered events = %d, want 1", kinds[obs.EvMemberDeregistered])
	}
	if kinds[obs.EvMemberOffline] != 1 {
		t.Fatalf("journal offline events = %d, want 1", kinds[obs.EvMemberOffline])
	}

	// Deregister is idempotent: the member is already offline, so the
	// second announcement succeeds without a second offline transition.
	if err := cli.Deregister(id); err != nil {
		t.Fatal(err)
	}
	if kinds = countKinds(j); kinds[obs.EvMemberOffline] != 1 {
		t.Fatalf("second deregister re-journalled offline: %d events", kinds[obs.EvMemberOffline])
	}

	// The identity survives: Rejoin brings the member back online at a
	// new address — the restart half of a churn cycle.
	if err := cli.Rejoin(id, "node-1b"); err != nil {
		t.Fatal(err)
	}
	addr, online, err = cli.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if !online || addr != "node-1b" {
		t.Fatalf("after rejoin: addr=%q online=%v, want node-1b online", addr, online)
	}
}

// TestDeregisterRejections pins the protocol errors: an unknown member
// and a BPID homed elsewhere are both terminal rejections, and neither
// disturbs registered state.
func TestDeregisterRejections(t *testing.T) {
	_, srv, cli := newPair(t, ServerConfig{})
	id, _, err := cli.Register(srv.Addr(), "node-1")
	if err != nil {
		t.Fatal(err)
	}

	bogus := id
	bogus.Node = 999
	if err := cli.Deregister(bogus); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown member: err = %v, want ErrUnknown", err)
	}

	// A request that reaches a server it is not homed at is rejected
	// before any member lookup (exercised at the handler layer, since
	// the client always routes by the BPID's home field).
	foreign := id
	foreign.LIGLO = "liglo-elsewhere"
	resp := srv.handleDeregister(&deregisterReq{ID: foreign})
	r, err := unmarshal(resp.Body, new(deregisterResp), "deregister reply")
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != ErrWrongHome.Error() {
		t.Fatalf("foreign home: err = %q, want %q", r.Err, ErrWrongHome.Error())
	}

	// The real member is untouched by both rejections.
	if _, online, err := cli.Lookup(id); err != nil || !online {
		t.Fatalf("member disturbed: online=%v err=%v", online, err)
	}
	if got := srv.Stats().Deregisters; got != 0 {
		t.Fatalf("rejections counted as deregisters: %d", got)
	}
}

// TestSweepDoesNotResurrectDeregisteredMember pins the live-drill
// regression: a gracefully-departed member's process usually stays up
// awaiting a Rejoin, so its address keeps accepting dials — the liveness
// sweep must not take that as evidence the member is back, or Replenish
// hands leavers straight back to every repairing node. Only an explicit
// Rejoin ends the departure.
func TestSweepDoesNotResurrectDeregisteredMember(t *testing.T) {
	j := obs.NewJournal("liglo-1", 64)
	nw, srv, cli := newPair(t, ServerConfig{Journal: j})

	// The member's address stays bound after it leaves, exactly like a
	// live node that called Leave without exiting.
	ln, err := nw.Listen("node-1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	id, _, err := cli.Register(srv.Addr(), "node-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Deregister(id); err != nil {
		t.Fatal(err)
	}

	srv.CheckNow()
	srv.CheckNow()
	if _, online, err := cli.Lookup(id); err != nil || online {
		t.Fatalf("sweep resurrected deregistered member: online=%v err=%v", online, err)
	}
	if kinds := countKinds(j); kinds[obs.EvMemberOnline] != 0 {
		t.Fatalf("journal shows %d member-online events, want 0", kinds[obs.EvMemberOnline])
	}

	// Rejoin is the one path back — and afterwards the sweep resumes
	// treating the (dialable) member as online.
	if err := cli.Rejoin(id, "node-1"); err != nil {
		t.Fatal(err)
	}
	srv.CheckNow()
	if _, online, err := cli.Lookup(id); err != nil || !online {
		t.Fatalf("rejoined member not online after sweep: online=%v err=%v", online, err)
	}
}
