package netsim

import (
	"testing"
	"time"

	"bestpeer/internal/wire"
)

func TestSharedMediumSerializesAllTransfers(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Bandwidth: 1000}) // 1000 B/s
	n.UseSharedMedium()
	var times []time.Duration
	for _, name := range []string{"a", "b", "c", "d"} {
		h := n.AddHost(name, HostConfig{})
		h.SetHandler(func(env *wire.Envelope) { times = append(times, s.Now()) })
	}
	// Two transfers between disjoint host pairs: on per-host links they
	// would run in parallel; on a shared medium they serialize.
	n.Send("a", "b", testEnv(wire.KindAgent, 0), 1000)
	n.Send("c", "d", testEnv(wire.KindAgent, 0), 1000)
	s.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("shared medium did not serialize: %v", times)
	}
}

func TestSharedMediumLatencyAfterTransfer(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Latency: 100 * time.Millisecond, Bandwidth: 1000})
	n.UseSharedMedium()
	n.AddHost("a", HostConfig{})
	var at time.Duration
	b := n.AddHost("b", HostConfig{})
	b.SetHandler(func(env *wire.Envelope) { at = s.Now() })
	n.Send("a", "b", testEnv(wire.KindResult, 0), 500)
	s.Run()
	want := 500*time.Millisecond + 100*time.Millisecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSharedMediumStatsStillCounted(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Bandwidth: 0})
	n.UseSharedMedium()
	a := n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})
	b.SetHandler(func(env *wire.Envelope) {})
	n.Send("a", "b", testEnv(wire.KindAgent, 16), 0)
	s.Run()
	if a.msgsSent != 1 || b.msgsRecvd != 1 || n.MsgsDelivered != 1 {
		t.Fatalf("stats lost on shared medium: %d/%d/%d", a.msgsSent, b.msgsRecvd, n.MsgsDelivered)
	}
	if b.bytesRecv == 0 || n.BytesDelivered != b.bytesRecv {
		t.Fatalf("byte accounting wrong: %d vs %d", b.bytesRecv, n.BytesDelivered)
	}
}

func TestSharedMediumInfiniteBandwidthInstant(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{})
	n.UseSharedMedium()
	n.AddHost("a", HostConfig{})
	delivered := false
	b := n.AddHost("b", HostConfig{})
	b.SetHandler(func(env *wire.Envelope) { delivered = true })
	n.Send("a", "b", testEnv(wire.KindAgent, 0), 1<<20)
	s.Run()
	if !delivered || s.Now() != 0 {
		t.Fatalf("infinite-bandwidth medium took %v", s.Now())
	}
}
