package transport

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

func env(kind wire.Kind, body string) *wire.Envelope {
	return &wire.Envelope{Kind: kind, ID: wire.NewMsgID(), TTL: 4, Body: []byte(body)}
}

// collector accumulates received envelopes.
type collector struct {
	mu   sync.Mutex
	got  []*wire.Envelope
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(e *wire.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, e)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collector) waitFor(t *testing.T, n int) []*wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d envelopes, have %d", n, len(c.got))
		}
		done := make(chan struct{})
		go func() {
			time.Sleep(10 * time.Millisecond)
			c.cond.Broadcast()
			close(done)
		}()
		c.cond.Wait()
		<-done
	}
	return append([]*wire.Envelope(nil), c.got...)
}

func testNetworks(t *testing.T) map[string]Network {
	return map[string]Network{
		"inproc": NewInProc(),
		"tcp":    TCP{},
	}
}

func TestMessengerDelivery(t *testing.T) {
	for name, nw := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			c := newCollector()
			recv, err := NewMessenger(nw, "", c.handle)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := NewMessenger(nw, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			want := env(wire.KindAgent, "payload")
			if err := send.Send(recv.Addr(), want); err != nil {
				t.Fatal(err)
			}
			got := c.waitFor(t, 1)
			if got[0].ID != want.ID || string(got[0].Body) != "payload" {
				t.Fatalf("delivered %+v", got[0])
			}
		})
	}
}

func TestMessengerManyMessagesOrdered(t *testing.T) {
	for name, nw := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			c := newCollector()
			recv, err := NewMessenger(nw, "", c.handle)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := NewMessenger(nw, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			const n = 100
			for i := 0; i < n; i++ {
				e := env(wire.KindResult, "m")
				e.Hops = uint8(i)
				if err := send.Send(recv.Addr(), e); err != nil {
					t.Fatal(err)
				}
			}
			got := c.waitFor(t, n)
			// Same destination queue: ordering must hold.
			for i := 0; i < n; i++ {
				if got[i].Hops != uint8(i) {
					t.Fatalf("message %d has hops %d (reordered)", i, got[i].Hops)
				}
			}
			// The sent counter trails the receiver's handler by one
			// instant; poll rather than assert the instantaneous value.
			deadline := time.Now().Add(2 * time.Second)
			for send.Stats().Sent != n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := send.Stats().Sent; got != n {
				t.Fatalf("Sent = %d, want %d", got, n)
			}
		})
	}
}

func TestMessengerBidirectional(t *testing.T) {
	nw := NewInProc()
	ca, cb := newCollector(), newCollector()
	a, err := NewMessenger(nw, "node-a", ca.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewMessenger(nw, "node-b", cb.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send("node-b", env(wire.KindAgent, "ping")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("node-a", env(wire.KindResult, "pong")); err != nil {
		t.Fatal(err)
	}
	if got := cb.waitFor(t, 1); string(got[0].Body) != "ping" {
		t.Fatalf("b got %q", got[0].Body)
	}
	if got := ca.waitFor(t, 1); string(got[0].Body) != "pong" {
		t.Fatalf("a got %q", got[0].Body)
	}
}

func TestMessengerDialFailure(t *testing.T) {
	// Sends to an unreachable address are accepted (delivery is async)
	// but fail in the worker; after FailThreshold consecutive failures
	// the destination goes suspect and Send starts reporting it.
	nw := NewInProc()
	m, err := NewMessengerOpts(nw, "solo", nil, Options{
		FailThreshold: 2,
		BackoffBase:   5 * time.Second, // long enough to observe
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := m.Send("ghost", env(wire.KindAgent, "x"))
		if errors.Is(err, ErrPeerSuspect) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected send error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("destination never went suspect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !suspect(m, "ghost") {
		t.Fatal("Suspect() disagrees with Send")
	}
	if m.Stats().Dropped == 0 {
		t.Fatal("failed deliveries not counted as dropped")
	}
}

// TestMessengerCountsBytesAndForms: bytes_sent and frames_sent{form} count
// what was written, frame for frame as the codec encoded it, and nothing
// that was dropped on the way.
func TestMessengerCountsBytesAndForms(t *testing.T) {
	nw := NewInProc()
	c := newCollector()
	recv, err := NewMessenger(nw, "", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	reg := obs.NewRegistry()
	send, err := NewMessengerOpts(nw, "", nil, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	random := make([]byte, 4<<10)
	rand.New(rand.NewSource(6)).Read(random)
	type tally struct{ frames, bytes float64 }
	want := map[string]*tally{"stored": {}, "gzip": {}}
	for _, e := range []*wire.Envelope{
		env(wire.KindPeerProbe, "tiny"),
		env(wire.KindResult, string(random)),
		env(wire.KindClassShip, strings.Repeat("compressible ", 400)),
	} {
		frame, err := wire.EncodeEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		form := want["stored"]
		if wire.FrameCompressed(frame) {
			form = want["gzip"]
		}
		form.frames++
		form.bytes += float64(len(frame))
		if err := send.Send(recv.Addr(), e); err != nil {
			t.Fatal(err)
		}
	}
	if want["stored"].frames != 2 || want["gzip"].frames != 1 {
		t.Fatalf("fixture: %v stored, %v gzip frames, want 2 and 1", want["stored"].frames, want["gzip"].frames)
	}
	if err := send.Send("ghost", env(wire.KindAgent, "never written")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(t, 3)
	read := func(snap *obs.Snapshot, family, form string) float64 {
		for _, m := range snap.Family(family).Metrics {
			if len(m.Labels) == 1 && m.Labels[0] == obs.L("form", form) {
				return m.Value
			}
		}
		return -1
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, got := reg.Snapshot(), map[string]tally{}
		for form := range want {
			got[form] = tally{read(snap, "bestpeer_transport_frames_sent_total", form), read(snap, "bestpeer_transport_bytes_sent_total", form)}
		}
		if got["stored"] == *want["stored"] && got["gzip"] == *want["gzip"] && send.Stats().Dropped == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stored %+v (want %+v), gzip %+v (want %+v), dropped %d (want 1)",
				got["stored"], *want["stored"], got["gzip"], *want["gzip"], send.Stats().Dropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMessengerRedialAfterPeerRestart(t *testing.T) {
	nw := TCP{}
	c1 := newCollector()
	recv, err := NewMessenger(nw, "127.0.0.1:0", c1.handle)
	if err != nil {
		t.Fatal(err)
	}
	addr := recv.Addr()
	send, err := NewMessenger(nw, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if err := send.Send(addr, env(wire.KindAgent, "one")); err != nil {
		t.Fatal(err)
	}
	c1.waitFor(t, 1)

	// Restart the receiver on the same address.
	recv.Close()
	c2 := newCollector()
	recv2, err := NewMessenger(nw, addr, c2.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv2.Close()

	// The cached connection is dead; Send must transparently re-dial.
	// The first send may be consumed by a half-closed socket, so allow a
	// couple of attempts like a real client would.
	var sent bool
	for i := 0; i < 3 && !sent; i++ {
		if err := send.Send(addr, env(wire.KindAgent, "two")); err == nil {
			select {
			case <-time.After(50 * time.Millisecond):
			}
			c2.mu.Lock()
			sent = len(c2.got) > 0
			c2.mu.Unlock()
		}
	}
	if !sent {
		t.Fatal("message never reached restarted peer")
	}
}

func TestMessengerClosedSendFails(t *testing.T) {
	nw := NewInProc()
	m, _ := NewMessenger(nw, "x", nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Send("x", env(wire.KindAgent, "late")); err != ErrMessengerClosed {
		t.Fatalf("send after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestInProcListenDuplicateAddr(t *testing.T) {
	nw := NewInProc()
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := nw.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestInProcAutoAddr(t *testing.T) {
	nw := NewInProc()
	l1, _ := nw.Listen("")
	l2, _ := nw.Listen("")
	defer l1.Close()
	defer l2.Close()
	if l1.Addr().String() == l2.Addr().String() {
		t.Fatal("auto addresses collide")
	}
	if l1.Addr().Network() != "inproc" {
		t.Fatalf("network = %q", l1.Addr().Network())
	}
}

func TestInProcDialClosedListener(t *testing.T) {
	nw := NewInProc()
	l, _ := nw.Listen("a")
	l.Close()
	if _, err := nw.Dial("a"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

func TestInProcDropSimulatesAddressChange(t *testing.T) {
	nw := NewInProc()
	l, _ := nw.Listen("old-ip")
	defer l.Close()
	nw.Drop("old-ip")
	if _, err := nw.Dial("old-ip"); err == nil {
		t.Fatal("dial to dropped address succeeded")
	}
}

func TestInProcConnIsUsable(t *testing.T) {
	nw := NewInProc()
	l, _ := nw.Listen("svc")
	defer l.Close()

	done := make(chan string, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err.Error()
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := conn.Read(buf); err != nil {
			done <- err.Error()
			return
		}
		conn.Write([]byte("world"))
		done <- string(buf)
	}()

	conn, err := nw.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != "hello" {
		t.Fatalf("server saw %q", got)
	}
	if string(buf) != "world" {
		t.Fatalf("client saw %q", buf)
	}
}

func TestAcceptAfterCloseReturnsErrClosed(t *testing.T) {
	nw := NewInProc()
	l, _ := nw.Listen("a")
	l.Close()
	if _, err := l.Accept(); err != net.ErrClosed {
		t.Fatalf("Accept after close: %v", err)
	}
}
