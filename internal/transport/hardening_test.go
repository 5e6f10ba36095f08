package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bestpeer/internal/wire"
)

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// hangNet wraps a Network so dials to chosen addresses block until
// released — the half-dead host that neither accepts nor refuses.
type hangNet struct {
	inner Network
	mu    sync.Mutex
	hung  map[string]chan struct{}
}

func newHangNet(inner Network) *hangNet {
	return &hangNet{inner: inner, hung: make(map[string]chan struct{})}
}

func (h *hangNet) hang(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.hung[addr]; !ok {
		h.hung[addr] = make(chan struct{})
	}
}

func (h *hangNet) release(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ch, ok := h.hung[addr]; ok {
		close(ch)
		delete(h.hung, addr)
	}
}

func (h *hangNet) Listen(addr string) (net.Listener, error) { return h.inner.Listen(addr) }

func (h *hangNet) Dial(addr string) (net.Conn, error) {
	h.mu.Lock()
	ch := h.hung[addr]
	h.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return h.inner.Dial(addr)
}

// TestSendNeverBlocksOnHungDial is the contract the query fan-out relies
// on: Send returns immediately even while the destination's dial hangs,
// overflow is reported as errQueueFull, and the caller never waits out
// the dial timeout.
func TestSendNeverBlocksOnHungDial(t *testing.T) {
	nw := newHangNet(NewInProc())
	nw.hang("tarpit")
	defer nw.release("tarpit")

	m, err := NewMessengerOpts(nw, "base", nil, Options{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	var full int
	for i := 0; i < 20; i++ {
		err := m.Send("tarpit", env(wire.KindAgent, "m"))
		if errors.Is(err, errQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("20 sends took %v with a hung dial; Send must not block", elapsed)
	}
	if full == 0 {
		t.Fatal("queue of 4 absorbed 20 sends without errQueueFull")
	}
	if m.Stats().Dropped == 0 {
		t.Fatal("overflowed sends not counted as dropped")
	}
}

// TestSuspectBackoffAndRecovery walks a destination through the failure
// lifecycle: repeated dial failures mark it suspect, sends during the
// backoff window are refused cheaply, and a successful delivery after
// the peer comes back clears the mark.
func TestSuspectBackoffAndRecovery(t *testing.T) {
	nw := NewInProc()
	m, err := NewMessengerOpts(nw, "base", nil, Options{
		FailThreshold: 2,
		BackoffBase:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Nobody listens at "flaky" yet: drive the peer into suspicion.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := m.Send("flaky", env(wire.KindAgent, "m"))
		if errors.Is(err, errPeerSuspect) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never became suspect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !suspect(m, "flaky") {
		t.Fatal("Suspect() disagrees with errPeerSuspect from Send")
	}

	// Bring the peer up; once the backoff window lapses the next send
	// goes through and clears the suspicion.
	c := newCollector()
	peer, err := NewMessenger(nw, "flaky", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for c.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed after peer came up")
		}
		m.Send("flaky", env(wire.KindAgent, "recovered"))
		time.Sleep(20 * time.Millisecond)
	}
	if suspect(m, "flaky") {
		t.Fatal("successful delivery did not clear suspect state")
	}
}

// TestHandlerPanicContained checks a panicking handler takes down
// neither the messenger nor the connection's read loop: later envelopes
// on the same connection are still delivered.
func TestHandlerPanicContained(t *testing.T) {
	nw := NewInProc()
	c := newCollector()
	recv, err := NewMessenger(nw, "recv", func(e *wire.Envelope) {
		if string(e.Body) == "boom" {
			panic("handler exploded")
		}
		c.handle(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	send, err := NewMessenger(nw, "send", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if err := send.Send("recv", env(wire.KindAgent, "boom")); err != nil {
		t.Fatal(err)
	}
	if err := send.Send("recv", env(wire.KindAgent, "after")); err != nil {
		t.Fatal(err)
	}
	delivered := c.waitFor(t, 1)
	if got := string(delivered[0].Body); got != "after" {
		t.Fatalf("delivered body = %q, want %q", got, "after")
	}
	if recv.Stats().HandlerPanics != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", recv.Stats().HandlerPanics)
	}
}

// TestSendDuringClose hammers Send from many goroutines while Close
// runs. The race detector guards the internals; the assertions guard
// the contract that post-close sends fail with errMessengerClosed.
func TestSendDuringClose(t *testing.T) {
	nw := NewInProc()
	c := newCollector()
	recv, err := NewMessenger(nw, "recv", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	m, err := NewMessenger(nw, "send", nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Send("recv", env(wire.KindAgent, fmt.Sprintf("g%d-%d", g, i)))
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	wg.Wait()

	if err := m.Send("recv", env(wire.KindAgent, "late")); !errors.Is(err, errMessengerClosed) {
		t.Fatalf("send after close = %v, want errMessengerClosed", err)
	}
}
