package workload

import (
	"testing"
	"time"
)

func TestExponentialSessionsDeterministicAndOrdered(t *testing.T) {
	gen := func() ChurnTrace {
		return ExponentialSessions(50, time.Hour, 10*time.Minute, 5*time.Minute, 0.5, 7)
	}
	a, b := gen(), gen()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	// Every event lands inside the horizon.
	for _, e := range a {
		if e.At >= time.Hour {
			t.Fatalf("event past horizon: %+v", e)
		}
	}
}

func TestExponentialSessionsAlternates(t *testing.T) {
	tr := ExponentialSessions(10, 2*time.Hour, 10*time.Minute, 5*time.Minute, 0.5, 3)
	// Per node: first event is a departure; joins and departures alternate.
	state := make(map[int]bool) // true = online
	for i := range state {
		state[i] = true
	}
	online := func(n int) bool {
		up, seen := state[n]
		return !seen || up // nodes start online
	}
	leaves, crashes := 0, 0
	for _, e := range tr {
		switch e.Op {
		case OpJoin:
			if online(e.Node) {
				t.Fatalf("join while online: %+v", e)
			}
			state[e.Node] = true
		case OpLeave, OpCrash:
			if !online(e.Node) {
				t.Fatalf("departure while offline: %+v", e)
			}
			state[e.Node] = false
			if e.Op == OpLeave {
				leaves++
			} else {
				crashes++
			}
		}
	}
	if leaves == 0 || crashes == 0 {
		t.Fatalf("gracefulFrac 0.5 produced leaves=%d crashes=%d", leaves, crashes)
	}
}

func TestCorrelatedFailureBurst(t *testing.T) {
	tr := CorrelatedFailureBurst(100, 0.25, 30*time.Second, 5)
	if len(tr) != 25 {
		t.Fatalf("victims = %d, want 25", len(tr))
	}
	seen := make(map[int]bool)
	for _, e := range tr {
		if e.Op != OpCrash || e.At != 30*time.Second {
			t.Fatalf("bad burst event: %+v", e)
		}
		if seen[e.Node] {
			t.Fatalf("node crashed twice: %+v", e)
		}
		seen[e.Node] = true
	}
	if len(CorrelatedFailureBurst(100, 0, time.Second, 5)) != 0 {
		t.Fatal("zero fraction should produce no events")
	}
}

func TestMergeOrdersDeterministically(t *testing.T) {
	a := ChurnTrace{{At: 2 * time.Second, Node: 1, Op: OpCrash}}
	b := ChurnTrace{{At: time.Second, Node: 2, Op: OpJoin}, {At: 2 * time.Second, Node: 0, Op: OpLeave}}
	m1 := Merge(a, b)
	m2 := Merge(b, a)
	if len(m1) != 3 || len(m2) != 3 {
		t.Fatalf("merge lengths %d, %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("merge order depends on input order at %d", i)
		}
	}
	if m1[0].Node != 2 || m1[1].Node != 0 || m1[2].Node != 1 {
		t.Fatalf("merge order wrong: %+v", m1)
	}
}
