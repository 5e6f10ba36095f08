package faultnet

import (
	"sync"
	"testing"
	"time"

	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// collector accumulates received envelopes behind a condition variable.
type collector struct {
	mu  sync.Mutex
	got []*wire.Envelope
}

func (c *collector) handle(e *wire.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, e)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d envelopes, have %d", n, c.count())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func env(body string) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindAgent, ID: wire.NewMsgID(), TTL: 4, Body: []byte(body)}
}

// fastOpts keeps messenger failure handling snappy under injected faults.
func fastOpts() transport.Options {
	return transport.Options{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		QueueSize:    512,
		BackoffBase:  20 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
	}
}

// pair starts a receiver at "dst" and a sender at "src" over the fabric,
// each seeing the network through its own host view.
func pair(t *testing.T, f *Fabric) (send *transport.Messenger, c *collector) {
	t.Helper()
	c = &collector{}
	recv, err := transport.NewMessengerOpts(f.Host("dst"), "dst", c.handle, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	send, err = transport.NewMessengerOpts(f.Host("src"), "src", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return send, c
}

func TestPerfectFabricDelivers(t *testing.T) {
	f := New(transport.NewInProc(), 1)
	send, c := pair(t, f)
	for i := 0; i < 20; i++ {
		if err := send.Send("dst", env("m")); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, 20)
}

func TestSeededDropRateIsReproducible(t *testing.T) {
	run := func(seed int64) int {
		f := New(transport.NewInProc(), seed)
		send, c := pair(t, f)
		f.SetConfig(Config{DropProb: 0.5})
		const n = 200
		accepted := uint64(0)
		for i := 0; i < n; i++ {
			if send.Send("dst", env("m")) == nil {
				accepted++
			}
		}
		// All writes flow through one send worker, and Sent counts dropped
		// writes too (the sender cannot tell), so Sent() == accepted means
		// the queue has fully drained.
		deadline := time.Now().Add(5 * time.Second)
		for send.Stats().Sent < accepted {
			if time.Now().After(deadline) {
				t.Fatalf("send queue never drained: %d of %d", send.Stats().Sent, accepted)
			}
			time.Sleep(2 * time.Millisecond)
		}
		c.waitFor(t, int(accepted)-int(f.Stats().MessagesDropped))
		return c.count()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed, different delivery: %d vs %d", a, b)
	}
	if a < 50 || a > 150 {
		t.Fatalf("drop rate implausible: %d of 200 delivered at p=0.5", a)
	}
	if c := run(43); c == a {
		t.Logf("different seeds coincided at %d (possible but unlikely)", c)
	}
}

func TestDialFailProbOne(t *testing.T) {
	f := New(transport.NewInProc(), 7)
	f.SetConfig(Config{DialFailProb: 1.0})
	l, err := f.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := f.Dial("x"); err == nil {
		t.Fatal("dial succeeded at DialFailProb=1")
	}
	if f.Stats().DialsFailed == 0 {
		t.Fatal("injected dial failure not counted")
	}
}

func TestDelayAddsLatency(t *testing.T) {
	f := New(transport.NewInProc(), 7)
	send, c := pair(t, f)
	f.SetConfig(Config{Delay: 60 * time.Millisecond})
	start := time.Now()
	if err := send.Send("dst", env("slow")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 1)
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("message arrived in %v, want >= 60ms", elapsed)
	}
}

func TestKillAndHeal(t *testing.T) {
	f := New(transport.NewInProc(), 7)
	send, c := pair(t, f)

	if err := send.Send("dst", env("before")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 1)

	f.Kill("dst")
	if _, err := f.Host("src").Dial("dst"); err == nil {
		t.Fatal("dial to killed address succeeded")
	}
	if f.Stats().ConnsSevered == 0 {
		t.Fatal("live connection not severed by Kill")
	}

	f.Heal("dst")
	// The messenger's backoff may be armed from failed deliveries during
	// the outage; poll until a send lands.
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < 2 {
		send.Send("dst", env("after"))
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed after Heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestPartitionCutsBothDirections(t *testing.T) {
	inner := transport.NewInProc()
	f := New(inner, 7)
	for _, addr := range []string{"a1", "a2", "b1"} {
		l, err := f.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				if _, err := l.Accept(); err != nil {
					return
				}
			}
		}()
	}
	f.Partition([]string{"a1", "a2"}, []string{"b1"})

	if _, err := f.Host("a1").Dial("b1"); err == nil {
		t.Fatal("a1 -> b1 dial crossed the partition")
	}
	if _, err := f.Host("b1").Dial("a2"); err == nil {
		t.Fatal("b1 -> a2 dial crossed the partition")
	}
	// Same side stays connected.
	if _, err := f.Host("a1").Dial("a2"); err != nil {
		t.Fatalf("a1 -> a2 blocked within partition side: %v", err)
	}

	f.HealPartitions()
	if _, err := f.Host("a1").Dial("b1"); err != nil {
		t.Fatalf("partition not healed: %v", err)
	}
}

func TestBlackHoleIsOneWay(t *testing.T) {
	f := New(transport.NewInProc(), 7)
	ca, cb := &collector{}, &collector{}
	a, err := transport.NewMessengerOpts(f.Host("a"), "a", ca.handle, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewMessengerOpts(f.Host("b"), "b", cb.handle, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	f.BlackHole("a", "b")
	if err := a.Send("b", env("into the void")); err != nil {
		t.Fatalf("black-holed send should look successful: %v", err)
	}
	if err := b.Send("a", env("reverse works")); err != nil {
		t.Fatal(err)
	}
	ca.waitFor(t, 1) // b -> a arrives
	time.Sleep(50 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("black hole leaked a message")
	}

	f.HealBlackHole("a", "b")
	if err := a.Send("b", env("visible")); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1)
}

func TestHangDialReleasedByHeal(t *testing.T) {
	f := New(transport.NewInProc(), 7)
	l, err := f.Listen("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	f.HangDial("slow")

	done := make(chan error, 1)
	go func() {
		_, err := f.Dial("slow")
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("hung dial returned early")
	case <-time.After(100 * time.Millisecond):
	}
	f.HealDial("slow")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dial after heal: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial never released after HealDial")
	}
}
