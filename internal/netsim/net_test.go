package netsim

import (
	"testing"
	"time"

	"bestpeer/internal/wire"
)

func testEnv(kind wire.Kind, body int) *wire.Envelope {
	return &wire.Envelope{Kind: kind, ID: wire.NewMsgID(), TTL: 7, Body: make([]byte, body)}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Bandwidth: 1000} // 1000 B/s
	if got := l.transferTime(500); got != 500*time.Millisecond {
		t.Fatalf("transfer time = %v", got)
	}
	if got := (Link{}).transferTime(1 << 20); got != 0 {
		t.Fatalf("infinite bandwidth transfer = %v", got)
	}
	if got := l.transferTime(0); got != 0 {
		t.Fatalf("zero-byte transfer = %v", got)
	}
	if got := l.transferTime(-5); got != 0 {
		t.Fatalf("negative size transfer = %v", got)
	}
}

func TestSendDeliversWithLatencyAndBandwidth(t *testing.T) {
	s := NewSim()
	// 10ms latency, 1 MB/s.
	n := NewNetwork(s, Link{Latency: 10 * time.Millisecond, Bandwidth: 1 << 20})
	n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})

	var deliveredAt time.Duration
	var got *wire.Envelope
	b.SetHandler(func(env *wire.Envelope) {
		deliveredAt = s.Now()
		got = env
	})

	env := testEnv(wire.KindAgent, 0)
	n.Send("a", "b", env, 1<<20) // exactly 1 second of serialization per side
	s.Run()

	want := time.Second + 10*time.Millisecond + time.Second
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if got == nil || got.ID != env.ID {
		t.Fatal("wrong envelope delivered")
	}
}

func TestSendDefaultsToWireSize(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Bandwidth: 0})
	a := n.AddHost("a", HostConfig{})
	b := n.AddHost("b", HostConfig{})
	b.SetHandler(func(env *wire.Envelope) {})
	env := testEnv(wire.KindResult, 100)
	n.Send("a", "b", env, 0)
	s.Run()
	if a.bytesSent != uint64(env.WireSize()) {
		t.Fatalf("bytes sent = %d, want %d", a.bytesSent, env.WireSize())
	}
	if b.bytesRecv != a.bytesSent || b.msgsRecvd != 1 || a.msgsSent != 1 {
		t.Fatalf("stats: %+v %+v", a, b)
	}
	if n.MsgsDelivered != 1 || n.BytesDelivered != a.bytesSent {
		t.Fatalf("network stats: %d msgs %d bytes", n.MsgsDelivered, n.BytesDelivered)
	}
}

func TestUplinkSerializesConcurrentSends(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Bandwidth: 1000}) // 1000 B/s, no latency
	n.AddHost("src", HostConfig{})
	var times []time.Duration
	for _, name := range []string{"d1", "d2", "d3"} {
		h := n.AddHost(name, HostConfig{})
		h.SetHandler(func(env *wire.Envelope) { times = append(times, s.Now()) })
	}
	// Three 1000-byte messages from the same host: uplink serializes them
	// at 1s each, so deliveries land at 2s, 3s, 4s (1s uplink queueing + 1s
	// downlink each, downlinks are distinct hosts so they don't queue).
	for _, name := range []string{"d1", "d2", "d3"} {
		n.Send("src", name, testEnv(wire.KindAgent, 0), 1000)
	}
	s.Run()
	want := []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(times) != 3 {
		t.Fatalf("deliveries = %d", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestDownlinkSerializesFanIn(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{Bandwidth: 1000})
	var times []time.Duration
	dst := n.AddHost("dst", HostConfig{})
	dst.SetHandler(func(env *wire.Envelope) { times = append(times, s.Now()) })
	for _, name := range []string{"s1", "s2", "s3"} {
		n.AddHost(name, HostConfig{})
		n.Send(name, "dst", testEnv(wire.KindResult, 0), 1000)
	}
	s.Run()
	// Uplinks run in parallel (distinct hosts) finishing at 1s; the shared
	// downlink then serializes: deliveries at 2s, 3s, 4s.
	want := []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fan-in delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestSingleThreadHostSerializesExec(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{})
	h := n.AddHost("a", HostConfig{Threads: 1})
	var ends []time.Duration
	h.Exec(10*time.Millisecond, func() { ends = append(ends, s.Now()) })
	h.Exec(10*time.Millisecond, func() { ends = append(ends, s.Now()) })
	s.Run()
	if ends[0] != 10*time.Millisecond || ends[1] != 20*time.Millisecond {
		t.Fatalf("single-thread exec times %v", ends)
	}
}

func TestMultiThreadHostParallelExec(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{})
	h := n.AddHost("a", HostConfig{Threads: 4})
	var ends []time.Duration
	for i := 0; i < 4; i++ {
		h.Exec(10*time.Millisecond, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	for i, e := range ends {
		if e != 10*time.Millisecond {
			t.Fatalf("thread %d finished at %v", i, e)
		}
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddHost did not panic")
		}
	}()
	s := NewSim()
	n := NewNetwork(s, Link{})
	n.AddHost("a", HostConfig{})
	n.AddHost("a", HostConfig{})
}

func TestSendUnknownHostPanics(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{})
	n.AddHost("a", HostConfig{})
	for _, pair := range [][2]string{{"a", "nope"}, {"nope", "a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("send %v did not panic", pair)
				}
			}()
			n.Send(pair[0], pair[1], testEnv(wire.KindAgent, 0), 1)
		}()
	}
}

func TestHostLookup(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, Link{})
	h := n.AddHost("a", HostConfig{})
	if n.Host("a") != h || n.Host("b") != nil || len(n.hosts) != 1 {
		t.Fatal("host lookup broken")
	}
	if h.addr != "a" {
		t.Fatalf("Addr = %q", h.addr)
	}
	if n.Sim() != s {
		t.Fatal("Sim accessor broken")
	}
}
