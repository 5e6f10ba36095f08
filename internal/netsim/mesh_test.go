package netsim

import (
	"testing"
	"time"
)

func TestMeshDeliversWithLatency(t *testing.T) {
	s := NewSim()
	m := NewMesh(s, 4, 10*time.Millisecond)
	type rec struct {
		to  int32
		msg MeshMsg
		at  time.Duration
	}
	var got []rec
	m.SetHandler(func(to int32, msg MeshMsg) {
		got = append(got, rec{to, msg, s.Now()})
	})
	m.Send(1, MeshMsg{From: 0, Kind: 7, A: 42})
	m.Send(2, MeshMsg{From: 0, Kind: 7, A: 43})
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].at != 10*time.Millisecond || got[1].at != 10*time.Millisecond {
		t.Fatalf("delivery times %v, %v; want 10ms", got[0].at, got[1].at)
	}
	if got[0].to != 1 || got[0].msg.A != 42 || got[1].to != 2 || got[1].msg.A != 43 {
		t.Fatalf("payloads scrambled: %+v", got)
	}
	st := m.Stats()
	if st.Sent != 2 || st.delivered != 2 || st.lostDead != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMeshDeadHostLosesInFlight(t *testing.T) {
	s := NewSim()
	m := NewMesh(s, 2, 5*time.Millisecond)
	delivered := 0
	m.SetHandler(func(to int32, msg MeshMsg) { delivered++ })
	m.Send(1, MeshMsg{From: 0})
	// The host crashes while the message is in flight: the message is
	// lost, exactly how a crash looks from the sender's side.
	s.After(time.Millisecond, func() { m.SetAlive(1, false) })
	s.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d to a dead host", delivered)
	}
	if st := m.Stats(); st.lostDead != 1 {
		t.Fatalf("stats = %+v, want 1 lost-dead", st)
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive = %d, want 1", m.AliveCount())
	}
}

func TestMeshRestartReceivesAgain(t *testing.T) {
	s := NewSim()
	m := NewMesh(s, 2, time.Millisecond)
	delivered := 0
	m.SetHandler(func(to int32, msg MeshMsg) { delivered++ })
	m.SetAlive(1, false)
	m.Send(1, MeshMsg{}) // lost
	s.After(10*time.Millisecond, func() {
		m.SetAlive(1, true)
		m.Send(1, MeshMsg{}) // delivered
	})
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestMeshHandlerSendsChain(t *testing.T) {
	// A handler that relays (the flood pattern) must keep the pump armed
	// across batches without double-delivering.
	s := NewSim()
	m := NewMesh(s, 3, time.Millisecond)
	var hops []int32
	m.SetHandler(func(to int32, msg MeshMsg) {
		hops = append(hops, to)
		if to < 2 {
			m.Send(to+1, MeshMsg{From: to})
		}
	})
	m.Send(1, MeshMsg{From: 0})
	end := s.Run()
	if len(hops) != 2 || hops[0] != 1 || hops[1] != 2 {
		t.Fatalf("relay path = %v", hops)
	}
	if end != 2*time.Millisecond {
		t.Fatalf("end = %v, want 2ms", end)
	}
}

func TestMeshRingCompaction(t *testing.T) {
	// Many sequential batches must not grow the ring without bound.
	s := NewSim()
	m := NewMesh(s, 2, time.Millisecond)
	count := 0
	m.SetHandler(func(to int32, msg MeshMsg) {
		count++
		if count < 5000 {
			m.Send(to, MeshMsg{})
		}
	})
	m.Send(1, MeshMsg{})
	s.Run()
	if count != 5000 {
		t.Fatalf("count = %d", count)
	}
	if len(m.ring) != 0 || m.head != 0 {
		t.Fatalf("ring not drained: len=%d head=%d", len(m.ring), m.head)
	}
}

func TestSimSeededRandDeterministic(t *testing.T) {
	draw := func(seed int64) []int64 {
		s := NewSimSeeded(seed)
		out := make([]int64, 8)
		for i := range out {
			out[i] = s.Rand().Int63n(1000)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded streams diverge at %d: %v vs %v", i, a, b)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSimShardedQueueTotalOrder(t *testing.T) {
	// Events landing on different shards must still execute in exact
	// (time, sequence) order — the sharding is an implementation detail.
	s := NewSim()
	var got []int
	// Interleave times so shard heads constantly compete.
	for i := 0; i < 1000; i++ {
		i := i
		at := time.Duration((i*7)%13) * time.Millisecond
		s.At(at, func() { got = append(got, i) })
	}
	s.Run()
	if len(got) != 1000 {
		t.Fatalf("executed %d events", len(got))
	}
	// Verify: sort key is (time, insertion order); recompute expected.
	last := -1
	lastAt := time.Duration(-1)
	for _, i := range got {
		at := time.Duration((i*7)%13) * time.Millisecond
		if at < lastAt || (at == lastAt && i < last) {
			t.Fatalf("order violated at event %d (at=%v, after at=%v seq=%d)", i, at, lastAt, last)
		}
		last, lastAt = i, at
	}
}

func BenchmarkSimSchedule(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(time.Duration(i), fn)
		if s.pending > 1<<16 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkMeshSend(b *testing.B) {
	s := NewSim()
	m := NewMesh(s, 1024, time.Millisecond)
	m.SetHandler(func(to int32, msg MeshMsg) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Send(int32(i%1024), MeshMsg{From: int32(i % 7), Kind: 1})
		if m.stats.Sent%(1<<16) == 0 {
			s.Run()
		}
	}
	s.Run()
}
