package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bestpeer/internal/transport"
)

// countingNet wraps a transport.Network so the benchmark can see what
// actually crosses the sockets: every byte written on a dialled
// connection and read on an accepted one is counted (the messenger
// writes only on connections it dialled and reads only on ones it
// accepted). With recording on — the traced run — each write and read is
// also kept as an event with its timestamps, and a sample of the written
// frames is retained so the wire codec can be replayed on real input.
type countingNet struct {
	inner transport.Network

	written atomic.Uint64 // bytes accepted by Write on dialled conns
	read    atomic.Uint64 // bytes returned by Read on accepted conns
	writes  atomic.Uint64 // Write calls (the messenger writes one frame per call)

	rec *netRecorder // nil unless tracing
}

func newCountingNet(inner transport.Network, rec *netRecorder) *countingNet {
	return &countingNet{inner: inner, rec: rec}
}

// Listen implements transport.Network.
func (c *countingNet) Listen(addr string) (net.Listener, error) {
	l, err := c.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, net: c}, nil
}

// Dial implements transport.Network.
func (c *countingNet) Dial(addr string) (net.Conn, error) {
	conn, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return c.wrap(conn, true), nil
}

// DialDeadline implements transport.DeadlineDialer so wrapping does not
// push the messenger onto DialTimeout's helper-goroutine path.
func (c *countingNet) DialDeadline(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := transport.DialTimeout(c.inner, addr, timeout)
	if err != nil {
		return nil, err
	}
	return c.wrap(conn, true), nil
}

func (c *countingNet) wrap(conn net.Conn, dialled bool) net.Conn {
	cc := &countingConn{Conn: conn, net: c}
	if c.rec != nil {
		// Both ends of one TCP connection get the same key, so a write
		// on the dialling side can be paired with the read that drains
		// it on the accepting side.
		local, remote := conn.LocalAddr().String(), conn.RemoteAddr().String()
		if dialled {
			cc.id = c.rec.connID(local + ">" + remote)
		} else {
			cc.id = c.rec.connID(remote + ">" + local)
		}
	}
	return cc
}

type countingListener struct {
	net.Listener
	net *countingNet
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(conn, false), nil
}

type countingConn struct {
	net.Conn
	net *countingNet
	id  int
}

func (c *countingConn) Write(p []byte) (int, error) {
	rec := c.net.rec
	var (
		start  time.Time
		ticket writeTicket
	)
	if rec != nil {
		start = time.Now()
		ticket = rec.writeStart(c.id, start, p)
	}
	n, err := c.Conn.Write(p)
	c.net.written.Add(uint64(n))
	c.net.writes.Add(1)
	if rec != nil {
		rec.wrote(ticket, time.Since(start))
	}
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.net.read.Add(uint64(n))
	if rec := c.net.rec; rec != nil && n > 0 {
		rec.readDone(c.id, time.Now(), n)
	}
	return n, err
}

// netEvent is one socket call seen by the recording network.
type netEvent struct {
	Conn  int   `json:"conn"`
	Write bool  `json:"write"`
	AtUS  int64 `json:"at_us"` // call start (writes) or return (reads), µs since recorder start
	DurNS int64 `json:"dur_ns,omitempty"`
	Bytes int   `json:"bytes"`
}

// connTotals is the per-connection summary written to the trace file.
type connTotals struct {
	Key          string `json:"key"`
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
	Writes       uint64 `json:"writes"`
	Reads        uint64 `json:"reads"`
}

// maxNetEvents bounds the in-memory event list; past it only the
// per-connection totals keep counting (a 10 s flood-scan trace makes
// about 60k events).
const maxNetEvents = 400_000

// frameSamplesPerBucket is how many written frames are retained per
// power-of-two size bucket for the wire replay.
const frameSamplesPerBucket = 32

type pendingWrite struct {
	start time.Time
	end   uint64 // cumulative byte offset at which this frame is fully written
}

type connState struct {
	// written and read are byte offsets since the connection opened; they
	// run whether or not a window is open so that frames in flight when
	// one opens still pair up.
	written, read uint64
	pending       []pendingWrite
	window        connTotals // what the open (or last) window saw
}

// netRecorder keeps the traced run's socket-level record in memory.
type netRecorder struct {
	mu      sync.Mutex
	on      bool
	t0      time.Time
	ids     map[string]int
	conns   []*connState
	events  []netEvent
	dropped uint64 // events past maxNetEvents

	writeBusy time.Duration   // Σ time inside Write calls
	flight    []time.Duration // write start → last byte read, per frame
	frames    map[int][][]byte
	frameHist map[int]*bucketCount
}

type bucketCount struct {
	n     uint64
	bytes uint64
}

func newNetRecorder() *netRecorder {
	return &netRecorder{ids: make(map[string]int)}
}

// begin opens the recorded window: whatever an earlier window (or the
// warm-up) left is dropped and events are kept from now on.
func (r *netRecorder) begin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = true
	r.t0 = time.Now()
	r.events = nil
	r.dropped = 0
	r.writeBusy = 0
	r.flight = nil
	r.frames = make(map[int][][]byte)
	r.frameHist = make(map[int]*bucketCount)
	for _, c := range r.conns {
		c.window = connTotals{Key: c.window.Key}
	}
}

// end closes the recorded window.
func (r *netRecorder) end() {
	r.mu.Lock()
	r.on = false
	r.mu.Unlock()
}

func (r *netRecorder) connID(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[key]; ok {
		return id
	}
	id := len(r.conns)
	r.ids[key] = id
	r.conns = append(r.conns, &connState{window: connTotals{Key: key}})
	return id
}

// sizeBucket is ⌈log2(n)⌉, the frame-size class used for the replay.
func sizeBucket(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

func (r *netRecorder) addEvent(e netEvent) {
	if len(r.events) >= maxNetEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// writeStart registers a frame before it reaches the socket, so the
// reader on the other end can never observe bytes the recorder has not
// yet been told about. It returns a ticket for wrote.
func (r *netRecorder) writeStart(id int, start time.Time, frame []byte) writeTicket {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.conns[id]
	c.written += uint64(len(frame))
	c.pending = append(c.pending, pendingWrite{start: start, end: c.written})
	if !r.on {
		return writeTicket{event: -1}
	}
	c.window.Writes++
	c.window.BytesWritten += uint64(len(frame))
	b := sizeBucket(len(frame))
	h := r.frameHist[b]
	if h == nil {
		h = &bucketCount{}
		r.frameHist[b] = h
	}
	h.n++
	h.bytes += uint64(len(frame))
	if len(r.frames[b]) < frameSamplesPerBucket {
		r.frames[b] = append(r.frames[b], append([]byte(nil), frame...))
	}
	t := writeTicket{window: r.t0, event: -1}
	if len(r.events) < maxNetEvents {
		t.event = len(r.events)
	}
	r.addEvent(netEvent{Conn: id, Write: true, AtUS: start.Sub(r.t0).Microseconds(), Bytes: len(frame)})
	return t
}

// writeTicket ties a finished write back to the event writeStart made
// for it, as long as the same window is still open.
type writeTicket struct {
	window time.Time
	event  int
}

// wrote adds how long the socket write took.
func (r *netRecorder) wrote(t writeTicket, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on || !t.window.Equal(r.t0) {
		return
	}
	r.writeBusy += dur
	if t.event >= 0 {
		r.events[t.event].DurNS = dur.Nanoseconds()
	}
}

func (r *netRecorder) readDone(id int, at time.Time, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.conns[id]
	c.read += uint64(n)
	for len(c.pending) > 0 && c.pending[0].end <= c.read {
		if r.on {
			r.flight = append(r.flight, at.Sub(c.pending[0].start))
		}
		c.pending = c.pending[1:]
	}
	if r.on {
		c.window.Reads++
		c.window.BytesRead += uint64(n)
		r.addEvent(netEvent{Conn: id, Write: false, AtUS: at.Sub(r.t0).Microseconds(), Bytes: n})
	}
}

// netSummary is what the traced budget needs from the recorder.
type netSummary struct {
	conns     []connTotals
	events    []netEvent
	dropped   uint64
	writeBusy time.Duration
	flight    []time.Duration
	frames    map[int][][]byte
	frameHist map[int]bucketCount
}

func (r *netRecorder) summary() netSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := netSummary{
		events:    r.events,
		dropped:   r.dropped,
		writeBusy: r.writeBusy,
		flight:    r.flight,
		frames:    r.frames,
		frameHist: make(map[int]bucketCount, len(r.frameHist)),
	}
	for b, h := range r.frameHist {
		s.frameHist[b] = *h
	}
	for _, c := range r.conns {
		if c.window.Writes+c.window.Reads > 0 {
			s.conns = append(s.conns, c.window)
		}
	}
	return s
}
