package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// Messenger errors.
var (
	// errMessengerClosed reports use after Close.
	errMessengerClosed = errors.New("transport: messenger closed")
	// errQueueFull reports that a destination's bounded send queue is
	// full; the message was dropped rather than blocking the caller.
	errQueueFull = errors.New("transport: send queue full")
	// errPeerSuspect reports that the destination has failed repeatedly
	// and is being skipped until its backoff expires.
	errPeerSuspect = errors.New("transport: peer suspect, backing off")
)

// writeTimeout bounds one envelope write on an established connection
// (where the underlying conn honours deadlines); backoffMax caps the
// suspect backoff. Dials are bounded by DialBound.
const (
	writeTimeout = 2 * time.Second
	backoffMax   = 10 * time.Second
)

// Options tunes the messenger's failure handling. The zero value selects
// the defaults noted on each field.
type Options struct {
	// QueueSize bounds each destination's send queue. A full queue makes
	// Send return errQueueFull instead of blocking. Default 128.
	QueueSize int
	// FailThreshold is how many consecutive delivery failures mark a
	// destination suspect. Default 3.
	FailThreshold int
	// BackoffBase is the suspect backoff after FailThreshold failures;
	// it doubles with each further failure, up to backoffMax. Default
	// 100ms.
	BackoffBase time.Duration
	// Metrics is the registry the messenger publishes its counters,
	// queue-depth gauge and latency histograms to. Nil means a private
	// registry; share one per node so /metrics shows transport state.
	// Families assume one messenger per registry (per-node registries).
	Metrics *obs.Registry
	// Journal receives structured transport events: message drops by
	// reason and per-peer suspect/recovered liveness transitions. Nil
	// disables journalling (obs.Journal methods are nil-safe).
	Journal *obs.Journal
	// OnSuspect, when non-nil, is invoked on suspect-state transitions:
	// once when a destination crosses the consecutive-failure threshold
	// (suspect=true) and once when a delivery to it succeeds again
	// (suspect=false). It runs on the send worker outside messenger
	// locks; implementations must not block. The failure detector in
	// internal/core uses it to kick repair without polling.
	OnSuspect func(addr string, suspect bool)
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 128
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Messenger delivers wire envelopes between named endpoints. Each
// messenger owns a listener; incoming connections are read in their own
// goroutines and every decoded envelope is handed to the handler.
//
// Outgoing delivery is asynchronous: Send enqueues onto a bounded
// per-destination queue drained by a dedicated worker, so a slow or
// unreachable peer can never block the caller. Per-destination ordering
// is preserved. A destination that fails FailThreshold times in a row is
// marked suspect and skipped (Send returns errPeerSuspect) until an
// exponential backoff expires; one successful delivery clears it.
type Messenger struct {
	network  Network
	listener net.Listener
	handler  func(*wire.Envelope)
	opts     Options

	mu     sync.Mutex
	outs   map[string]*sendQueue
	ins    map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	done   chan struct{}

	// Metric handles, cached from opts.Metrics at construction so the
	// hot path is one atomic add. Dropped envelopes are split by reason
	// under one family.
	sent            *obs.Counter
	sentByForm      [2]struct{ frames, bytes *obs.Counter } // form="stored", form="gzip"
	received        *obs.Counter
	droppedQueue    *obs.Counter // reason="queue-full"
	droppedSuspect  *obs.Counter // reason="suspect"
	droppedEncode   *obs.Counter // reason="encode"
	droppedDeliver  *obs.Counter // reason="deliver"
	droppedForget   *obs.Counter // reason="forget"
	redialsMetric   *obs.Counter
	handlerPanicsMx *obs.Counter
	loopPanicsMx    *obs.Counter
	dialSeconds     *obs.Histogram
	writeSeconds    *obs.Histogram
}

// MessengerStats is a point-in-time snapshot of the messenger counters.
type MessengerStats struct {
	Sent          uint64
	Received      uint64
	Dropped       uint64 // all reasons combined
	Redials       uint64
	HandlerPanics uint64
	LoopPanics    uint64
}

// Stats snapshots the messenger counters.
func (m *Messenger) Stats() MessengerStats {
	return MessengerStats{
		Sent:     m.sent.Value(),
		Received: m.received.Value(),
		Dropped: m.droppedQueue.Value() + m.droppedSuspect.Value() +
			m.droppedEncode.Value() + m.droppedDeliver.Value() +
			m.droppedForget.Value(),
		Redials:       m.redialsMetric.Value(),
		HandlerPanics: m.handlerPanicsMx.Value(),
		LoopPanics:    m.loopPanicsMx.Value(),
	}
}

// bindMetrics registers the messenger's metric families and caches the
// instance handles.
func (m *Messenger) bindMetrics(reg *obs.Registry) {
	const dropHelp = "Outgoing envelopes abandoned, by reason."
	m.sent = reg.Counter("bestpeer_transport_messages_sent_total",
		"Envelopes written to the network.")
	for i, form := range []string{"stored", "gzip"} {
		m.sentByForm[i].frames = reg.Counter("bestpeer_transport_frames_sent_total",
			"Frames written to the network, by how the codec sent the body.", obs.L("form", form))
		m.sentByForm[i].bytes = reg.Counter("bestpeer_transport_bytes_sent_total",
			"Encoded frame bytes written to the network, by how the codec sent the body.", obs.L("form", form))
	}
	m.received = reg.Counter("bestpeer_transport_messages_received_total",
		"Envelopes decoded from the network.")
	m.droppedQueue = reg.Counter("bestpeer_transport_messages_dropped_total", dropHelp,
		obs.L("reason", "queue-full"))
	m.droppedSuspect = reg.Counter("bestpeer_transport_messages_dropped_total", dropHelp,
		obs.L("reason", "suspect"))
	m.droppedEncode = reg.Counter("bestpeer_transport_messages_dropped_total", dropHelp,
		obs.L("reason", "encode"))
	m.droppedDeliver = reg.Counter("bestpeer_transport_messages_dropped_total", dropHelp,
		obs.L("reason", "deliver"))
	m.droppedForget = reg.Counter("bestpeer_transport_messages_dropped_total", dropHelp,
		obs.L("reason", "forget"))
	m.redialsMetric = reg.Counter("bestpeer_transport_redials_total",
		"Stale cached connections re-dialed.")
	m.handlerPanicsMx = reg.Counter("bestpeer_transport_handler_panics_total",
		"Handler invocations that panicked and were contained.")
	m.loopPanicsMx = reg.Counter("bestpeer_transport_loop_panics_total",
		"Messenger goroutines that panicked and were contained.")
	m.dialSeconds = reg.Histogram("bestpeer_transport_dial_seconds",
		"Outgoing connection dial latency.", obs.LatencyBuckets)
	m.writeSeconds = reg.Histogram("bestpeer_transport_write_seconds",
		"Envelope write latency on established connections.", obs.LatencyBuckets)
	reg.GaugeFunc("bestpeer_transport_send_queue_depth",
		"Envelopes currently queued across all destinations.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			depth := 0
			for _, q := range m.outs {
				depth += len(q.ch)
			}
			return float64(depth)
		})
}

// containLoop is deferred at the top of every messenger goroutine so a
// panic in the accept, read or send path is counted instead of killing
// the process. Handler panics are contained separately (invokeHandler);
// this guards the messenger's own loop code.
func (m *Messenger) containLoop() {
	if r := recover(); r != nil {
		m.loopPanicsMx.Inc()
	}
}

// NewMessenger binds addr on the network with default options. handler is
// invoked from reader goroutines — it must be safe for concurrent use.
func NewMessenger(network Network, addr string, handler func(*wire.Envelope)) (*Messenger, error) {
	return NewMessengerOpts(network, addr, handler, Options{})
}

// NewMessengerOpts binds addr on the network and starts accepting.
func NewMessengerOpts(network Network, addr string, handler func(*wire.Envelope), opts Options) (*Messenger, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	m := &Messenger{
		network:  network,
		listener: l,
		handler:  handler,
		opts:     opts.withDefaults(),
		outs:     make(map[string]*sendQueue),
		ins:      make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	m.bindMetrics(m.opts.Metrics)
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the bound address.
func (m *Messenger) Addr() string { return m.listener.Addr().String() }

// Forget releases every resource held for the destination: its send
// queue, worker goroutine, cached connection and suspect/backoff state.
// Queued envelopes are dropped (reason "forget") — the peer has departed,
// so delivering them would only burn dial timeouts. Call it when a peer
// leaves the overlay, so a long-lived node under churn does not
// accumulate one worker per peer it ever spoke to. A later Send to the
// same address starts fresh. It reports whether state existed to release.
func (m *Messenger) Forget(to string) bool {
	m.mu.Lock()
	q, ok := m.outs[to]
	if ok {
		delete(m.outs, to)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	q.stop()
	return true
}

// Failing reports whether the destination has crossed the consecutive-
// failure threshold and has not delivered anything since. Unlike the
// suspect backoff window, this does not reset when the backoff window expires — only a
// successful delivery clears it — so slow-cadence health checks (the
// repair loop) cannot race a short backoff and miss a dead peer.
func (m *Messenger) Failing(to string) bool {
	m.mu.Lock()
	q, ok := m.outs[to]
	m.mu.Unlock()
	if !ok {
		return false
	}
	q.qmu.Lock()
	defer q.qmu.Unlock()
	return q.failures >= m.opts.FailThreshold
}

func (m *Messenger) acceptLoop() {
	defer m.wg.Done()
	defer m.containLoop()
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close() // racing shutdown; the dialer sees a reset either way
			return
		}
		m.ins[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.readLoop(conn)
	}
}

func (m *Messenger) readLoop(conn net.Conn) {
	defer m.wg.Done()
	defer m.containLoop()
	defer func() {
		_ = conn.Close() // reader is done with it; peer may already be gone
		m.mu.Lock()
		delete(m.ins, conn)
		m.mu.Unlock()
	}()
	wc := wire.NewConn(conn)
	for {
		env, err := wc.Recv()
		if err != nil {
			return
		}
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return
		}
		m.received.Inc()
		if m.handler != nil {
			m.invokeHandler(env)
		}
	}
}

// invokeHandler contains a handler panic to the envelope that caused it,
// so one bad message cannot kill a reader goroutine.
func (m *Messenger) invokeHandler(env *wire.Envelope) {
	defer func() {
		if r := recover(); r != nil {
			m.handlerPanicsMx.Inc()
		}
	}()
	m.handler(env)
}

// Send enqueues env for asynchronous delivery to the endpoint at to.
// It never blocks: a full queue returns errQueueFull and a destination
// in failure backoff returns errPeerSuspect. A nil return means the
// envelope was accepted for delivery, not that it arrived — transport is
// best-effort, exactly like the lossy networks the paper assumes.
func (m *Messenger) Send(to string, env *wire.Envelope) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errMessengerClosed
	}
	q, ok := m.outs[to]
	if !ok {
		q = newSendQueue(m, to)
		m.outs[to] = q
		m.wg.Add(1)
		go q.run()
	}
	m.mu.Unlock()

	if until, suspect := q.suspended(); suspect {
		m.droppedSuspect.Inc()
		m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: to, Reason: "suspect"})
		return fmt.Errorf("%w: %s for another %v", errPeerSuspect, to, time.Until(until).Round(time.Millisecond))
	}
	select {
	case q.ch <- env:
		return nil
	default:
		m.droppedQueue.Inc()
		m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: to, Reason: "queue-full"})
		return fmt.Errorf("%w: %s", errQueueFull, to)
	}
}

// Close stops accepting, drops cached connections, terminates the send
// workers and waits for every goroutine to drain.
func (m *Messenger) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.done)
	ins := make([]net.Conn, 0, len(m.ins))
	for c := range m.ins {
		ins = append(ins, c)
	}
	m.mu.Unlock()

	// Unblocks the accept loop; its error is the shutdown signal.
	_ = m.listener.Close()
	// Closing accepted connections unblocks their reader goroutines;
	// otherwise Close would wait on peers that close after us.
	for _, c := range ins {
		_ = c.Close() // best effort; the reader's own defer also closes
	}
	m.wg.Wait()
	return nil
}

// sendQueue is one destination's bounded queue plus the single worker
// goroutine that drains it. The worker owns conn; failure state is
// shared with Send under qmu.
type sendQueue struct {
	m    *Messenger
	addr string
	ch   chan *wire.Envelope

	stopped  chan struct{} // closed by Forget; ends the worker early
	stopOnce sync.Once

	qmu          sync.Mutex
	failures     int
	suspectUntil time.Time

	conn net.Conn // worker-only
}

func newSendQueue(m *Messenger, addr string) *sendQueue {
	return &sendQueue{
		m:       m,
		addr:    addr,
		ch:      make(chan *wire.Envelope, m.opts.QueueSize),
		stopped: make(chan struct{}),
	}
}

// stop ends the worker; idempotent so Forget racing Close is safe.
func (q *sendQueue) stop() {
	q.stopOnce.Do(func() { close(q.stopped) })
}

// suspended reports whether the destination is inside its backoff window.
func (q *sendQueue) suspended() (time.Time, bool) {
	q.qmu.Lock()
	defer q.qmu.Unlock()
	if q.suspectUntil.IsZero() || time.Now().After(q.suspectUntil) {
		return time.Time{}, false
	}
	return q.suspectUntil, true
}

// fail records one delivery failure and arms the exponential backoff
// once the consecutive-failure threshold is crossed. The suspect
// transition (not every failure) is journalled.
func (q *sendQueue) fail() {
	q.qmu.Lock()
	q.failures++
	failures := q.failures
	over := failures - q.m.opts.FailThreshold
	if over < 0 {
		q.qmu.Unlock()
		return
	}
	backoff := q.m.opts.BackoffBase
	for i := 0; i < over && backoff < backoffMax; i++ {
		backoff *= 2
	}
	if backoff > backoffMax {
		backoff = backoffMax
	}
	q.suspectUntil = time.Now().Add(backoff)
	q.qmu.Unlock()
	if over == 0 {
		q.m.opts.Journal.Append(obs.Event{Kind: obs.EvPeerSuspect, Peer: q.addr, Count: failures})
		if cb := q.m.opts.OnSuspect; cb != nil {
			cb(q.addr, true)
		}
	}
}

// succeed clears the failure state after a delivered envelope; recovery
// from suspect (a state transition, not every delivery) is journalled.
func (q *sendQueue) succeed() {
	q.qmu.Lock()
	wasSuspect := !q.suspectUntil.IsZero()
	q.failures = 0
	q.suspectUntil = time.Time{}
	q.qmu.Unlock()
	if wasSuspect {
		q.m.opts.Journal.Append(obs.Event{Kind: obs.EvPeerRecovered, Peer: q.addr})
		if cb := q.m.opts.OnSuspect; cb != nil {
			cb(q.addr, false)
		}
	}
}

func (q *sendQueue) run() {
	defer q.m.wg.Done()
	defer q.m.containLoop()
	defer func() {
		if q.conn != nil {
			_ = q.conn.Close() // worker shutdown; nothing to report the error to
			q.conn = nil
		}
	}()
	for {
		select {
		case <-q.m.done:
			return
		case <-q.stopped:
			// Forgotten: account queued envelopes as dropped, then
			// release everything. A Send racing Forget on the stale
			// queue pointer at worst loses its envelope — transport is
			// best-effort and the peer is gone anyway.
			for {
				select {
				case <-q.ch:
					q.m.droppedForget.Inc()
					q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "forget"})
				default:
					return
				}
			}
		case env := <-q.ch:
			q.deliver(env)
		}
	}
}

// deliver writes one envelope, re-dialing a stale cached connection
// once. Failures are counted; the envelope is dropped, never retried —
// upper layers own retry policy.
func (q *sendQueue) deliver(env *wire.Envelope) {
	if _, suspect := q.suspended(); suspect {
		// Enqueued before the destination went suspect; don't burn a
		// dial timeout per queued message on a peer known to be bad.
		q.m.droppedSuspect.Inc()
		q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "suspect"})
		return
	}
	frame, err := wire.EncodeEnvelope(env)
	if err != nil {
		q.m.droppedEncode.Inc()
		q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "encode"})
		return
	}
	if q.conn == nil {
		conn, err := q.dial()
		if err != nil {
			q.fail()
			q.m.droppedDeliver.Inc()
			q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "deliver"})
			return
		}
		q.conn = conn
	}
	if err := q.write(frame); err != nil {
		// Stale cached connection (peer restarted): re-dial once.
		_ = q.conn.Close() // already failing; the write error is the signal
		q.conn = nil
		q.m.redialsMetric.Inc()
		conn, derr := q.dial()
		if derr != nil {
			q.fail()
			q.m.droppedDeliver.Inc()
			q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "deliver"})
			return
		}
		q.conn = conn
		if err := q.write(frame); err != nil {
			_ = q.conn.Close() // already failing; the write error is the signal
			q.conn = nil
			q.fail()
			q.m.droppedDeliver.Inc()
			q.m.opts.Journal.Append(obs.Event{Kind: obs.EvMessageDropped, Peer: q.addr, Reason: "deliver"})
			return
		}
	}
	q.succeed()
	q.m.sent.Inc()
	form := &q.m.sentByForm[0]
	if wire.FrameCompressed(frame) {
		form = &q.m.sentByForm[1]
	}
	form.frames.Inc()
	form.bytes.Add(uint64(len(frame)))
}

// dial opens a connection to the destination, recording dial latency.
func (q *sendQueue) dial() (net.Conn, error) {
	start := time.Now()
	conn, err := DialTimeout(q.m.network, q.addr, DialBound)
	q.m.dialSeconds.ObserveDuration(time.Since(start))
	return conn, err
}

// write puts one whole frame on the wire under the write deadline. A
// frame is a single Write call, so stream framing survives fault layers
// that drop or delay at message granularity.
func (q *sendQueue) write(frame []byte) error {
	q.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	start := time.Now()
	_, err := q.conn.Write(frame)
	q.m.writeSeconds.ObserveDuration(time.Since(start))
	return err
}
