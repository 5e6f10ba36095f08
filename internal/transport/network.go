// Package transport provides the connectivity layer of the live BestPeer
// stack: a Network abstraction with real TCP and in-process
// implementations, plus a Messenger that delivers wire envelopes between
// named endpoints with cached connections.
//
// Everything above this package (LIGLO, the BestPeer node, the chord ring)
// is written against Network, so the same code runs over localhost TCP in
// the daemons and over synchronous pipes in tests and examples.
package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Network abstracts how endpoints listen and connect. Implementations
// must be safe for concurrent use.
type Network interface {
	// Listen binds the address and returns a listener. The empty address
	// asks the network to choose one (TCP: an ephemeral localhost port).
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listening address.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network implementation.
type TCP struct{}

// Listen implements Network. An empty address binds an ephemeral
// localhost port.
func (TCP) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// Dial implements Network.
func (TCP) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// deadlineDialer is implemented by networks that support bounded dials
// natively; DialTimeout uses it when available.
type deadlineDialer interface {
	DialDeadline(addr string, timeout time.Duration) (net.Conn, error)
}

// DialDeadline implements deadlineDialer using the kernel's own timeout.
func (TCP) DialDeadline(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// DialTimeout dials addr on any Network with an upper bound on how long
// the caller waits. Networks that cannot be cancelled (a hung in-process
// dial, a black-holed route) are dialed in a helper goroutine; when the
// timeout fires first, the eventual connection — if one ever appears —
// is closed and discarded.
func DialTimeout(nw Network, addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		return nw.Dial(addr)
	}
	if d, ok := nw.(deadlineDialer); ok {
		return d.DialDeadline(addr, timeout)
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() { _ = recover() }() // a panicking Network must not kill the process
		conn, err := nw.Dial(addr)
		select {
		case ch <- result{conn, err}:
		default:
			// Unreachable: ch is buffered(1) with this goroutine as the
			// sole sender. The branch keeps the send provably non-blocking.
		}
	}()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-time.After(timeout):
		go func() {
			defer func() { _ = recover() }() // Close on a broken conn must not kill the process
			if r := <-ch; r.conn != nil {
				_ = r.conn.Close() // discarding a conn the caller gave up on
			}
		}()
		return nil, fmt.Errorf("transport: dial %s: timed out after %v", addr, timeout)
	}
}

// InProc is an in-memory Network: listeners register in a shared hub and
// Dial creates a synchronous net.Pipe to the accept loop. One InProc
// value is one isolated universe.
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextPort  int
}

// NewInProc returns an empty in-memory network.
func NewInProc() *InProc {
	return &InProc{listeners: make(map[string]*inprocListener)}
}

// Listen implements Network.
func (n *InProc) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.nextPort++
		addr = fmt.Sprintf("inproc-%d", n.nextPort)
	}
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *InProc) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: connection refused: %q", addr)
	}
	client, server := newBufferedPipe(inprocAddr("dialer"), inprocAddr(addr))
	// A full accept backlog intentionally blocks the dialer, exactly like
	// a kernel SYN queue; callers bound the wait via DialTimeout.
	select {
	case l.accept <- server: //bpvet:ignore blockingsend backlog pressure is the contract; DialTimeout bounds it
		return client, nil
	case <-l.done:
		_ = client.Close() // dial failed; nothing to report the error to
		return nil, fmt.Errorf("transport: connection refused: %q", addr)
	}
}

// Drop unregisters an address without closing its listener — used by
// tests to simulate a node whose IP address is gone.
func (n *InProc) Drop(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, addr)
}

type inprocListener struct {
	net    *InProc
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() net.Addr { return inprocAddr(l.addr) }

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }
