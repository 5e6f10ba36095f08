package liglo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// ErrClientClosed reports that Close interrupted a retry backoff.
var ErrClientClosed = errors.New("liglo: client closed")

// ClientOptions tunes the client's failure handling. The zero value
// selects the defaults noted on each field.
type ClientOptions struct {
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// CallTimeout bounds one whole request/response exchange, where the
	// underlying connection honours deadlines. Default 5s.
	CallTimeout time.Duration
	// Retries is how many times a failed RegisterAny round or Rejoin
	// call is reattempted (so Retries+1 total attempts). Only transport
	// failures retry; protocol rejections are terminal. Default 2.
	Retries int
	// BackoffBase is the wait before the first retry; it doubles each
	// round, capped at BackoffMax. Default 50ms.
	BackoffBase time.Duration
	// BackoffMax caps the retry backoff. Default 1s.
	BackoffMax time.Duration
	// Metrics is the registry the client's call counters are published
	// to. Nil means a private registry; a node shares its own registry
	// here so LIGLO traffic shows up on /metrics.
	Metrics *obs.Registry
	// RingServers are fallback contact points for ring-mode deployments.
	// When a BPID's issuing server is unreachable, lookups, rejoins and
	// deregisters retry through these servers and transparently follow
	// ring redirects to whichever member now owns the key. Empty keeps
	// classic single-home behaviour.
	RingServers []string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// backoff returns the wait after the given zero-based retry round.
func (o ClientOptions) backoff(round int) time.Duration {
	d := o.BackoffBase
	for i := 0; i < round && d < o.BackoffMax; i++ {
		d *= 2
	}
	if d > o.BackoffMax {
		d = o.BackoffMax
	}
	return d
}

// Client talks to LIGLO servers. Connections are per-call: registration
// and rejoin happen once per session and lookups are rare, so caching
// buys nothing and a stateless client is simpler to reason about.
type Client struct {
	network transport.Network
	opts    ClientOptions

	stop     chan struct{}
	stopOnce sync.Once

	// Per-operation call counters, keyed by op name.
	calls map[string]*obs.Counter
	fails map[string]*obs.Counter
}

// NewClient returns a client that dials over the given network with
// default options.
func NewClient(network transport.Network) *Client {
	return NewClientOpts(network, ClientOptions{})
}

// NewClientOpts returns a client with explicit failure-handling options.
func NewClientOpts(network transport.Network, opts ClientOptions) *Client {
	c := &Client{
		network: network,
		opts:    opts.withDefaults(),
		stop:    make(chan struct{}),
		calls:   make(map[string]*obs.Counter),
		fails:   make(map[string]*obs.Counter),
	}
	reg := c.opts.Metrics
	for _, op := range []string{"register", "rejoin", "lookup", "peers", "deregister"} {
		c.calls[op] = reg.Counter("bestpeer_liglo_client_calls_total",
			"LIGLO request/response exchanges attempted, by operation.", obs.L("op", op))
		c.fails[op] = reg.Counter("bestpeer_liglo_client_call_failures_total",
			"LIGLO exchanges that failed at the transport layer, by operation.", obs.L("op", op))
	}
	return c
}

// Close interrupts any in-flight retry backoff; blocked RegisterAny and
// Rejoin calls return promptly with ErrClientClosed joined to the last
// transport error. Close is idempotent and safe for concurrent use.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	return nil
}

// sleep waits out one backoff round, returning false when Close
// interrupted the wait.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.stop:
		return false
	}
}

// call performs one request/response exchange with a server, bounded by
// the dial and call timeouts. op names the operation for metrics.
func (c *Client) call(op, server string, req *wire.Envelope) (*wire.Envelope, error) {
	c.calls[op].Inc()
	resp, err := c.callOnce(server, req)
	if err != nil {
		c.fails[op].Inc()
	}
	return resp, err
}

// maxRedirects bounds how many ring redirects one logical call follows —
// a converging ring answers in one hop; more than a few means the ring's
// ownership view is still settling and the caller should back off.
const maxRedirects = 4

// callRing performs one logical exchange against a ring of servers: try
// the primary, fall back to RingServers on transport failure, and follow
// KindRingRedirect replies to the owning server. Outside ring mode (no
// RingServers, no redirect replies) it behaves exactly like call.
func (c *Client) callRing(op, primary string, req *wire.Envelope) (*wire.Envelope, error) {
	queue := make([]string, 0, 1+len(c.opts.RingServers))
	queue = append(queue, primary)
	for _, s := range c.opts.RingServers {
		if s != primary {
			queue = append(queue, s)
		}
	}
	var lastErr error
	redirects := 0
	for len(queue) > 0 {
		target := queue[0]
		queue = queue[1:]
		resp, err := c.call(op, target, req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Kind == wire.KindRingRedirect {
			m, derr := unmarshal(resp.Body, new(redirectMsg), "redirect")
			if derr != nil {
				return nil, derr
			}
			lastErr = fmt.Errorf("liglo: %s redirected to %s", op, m.Addr)
			if redirects < maxRedirects && m.Addr != target {
				redirects++
				queue = append([]string{m.Addr}, queue...)
			}
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = errors.New("liglo: no servers reachable")
	}
	return nil, lastErr
}

func (c *Client) callOnce(server string, req *wire.Envelope) (*wire.Envelope, error) {
	conn, err := transport.DialTimeout(c.network, server, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("liglo: dial %s: %w", server, err)
	}
	defer conn.Close()
	if ct := c.opts.CallTimeout; ct > 0 {
		conn.SetDeadline(time.Now().Add(ct))
	}
	wc := wire.NewConn(conn)
	if err := wc.Send(req); err != nil {
		return nil, fmt.Errorf("liglo: send to %s: %w", server, err)
	}
	resp, err := wc.Recv()
	if err != nil {
		return nil, fmt.Errorf("liglo: recv from %s: %w", server, err)
	}
	return resp, nil
}

// Register asks the server for a BPID, reporting myAddr as the current
// address. It returns the issued identity and the initial direct-peer
// list. A capacity-limited server returns ErrFull — seek another server.
func (c *Client) Register(server, myAddr string) (wire.BPID, []PeerInfo, error) {
	req := &wire.Envelope{
		Kind: wire.KindLigloRegister,
		ID:   wire.NewMsgID(),
		TTL:  1,
		Body: wire.Marshal(&registerReq{Addr: myAddr}),
	}
	resp, err := c.call("register", server, req)
	if err != nil {
		return wire.BPID{}, nil, err
	}
	r, err := unmarshal(resp.Body, new(registerResp), "registered")
	if err != nil {
		return wire.BPID{}, nil, err
	}
	if r.Err != "" {
		if r.Err == ErrFull.Error() {
			return wire.BPID{}, nil, ErrFull
		}
		return wire.BPID{}, nil, errors.New(r.Err)
	}
	return r.ID, r.Peers, nil
}

// RegisterAny tries each server in order until one accepts — the paper's
// "the node has to seek for another LIGLO" behaviour when a server is at
// capacity or down. A round where every server was unreachable is
// retried with exponential backoff, bounded by Retries; a round where
// every server answered ErrFull is terminal (backing off will not free
// capacity a human did not).
func (c *Client) RegisterAny(servers []string, myAddr string) (wire.BPID, []PeerInfo, error) {
	if len(servers) == 0 {
		return wire.BPID{}, nil, errors.New("liglo: no servers given")
	}
	var lastErr error
	for round := 0; ; round++ {
		allFull := true
		for _, s := range servers {
			id, peers, err := c.Register(s, myAddr)
			if err == nil {
				return id, peers, nil
			}
			if !errors.Is(err, ErrFull) {
				allFull = false
			}
			lastErr = err
		}
		if allFull || round >= c.opts.Retries {
			return wire.BPID{}, nil, lastErr
		}
		if !c.sleep(c.opts.backoff(round)) {
			return wire.BPID{}, nil, errors.Join(ErrClientClosed, lastErr)
		}
	}
}

// Rejoin reports the node's current address to its home server after a
// reconnect, retrying transport failures with exponential backoff.
// Protocol rejections (ErrUnknown, ErrWrongHome) are terminal.
func (c *Client) Rejoin(id wire.BPID, myAddr string) error {
	var lastErr error
	for round := 0; ; round++ {
		err := c.rejoinOnce(id, myAddr)
		if err == nil || errors.Is(err, ErrUnknown) || errors.Is(err, ErrWrongHome) {
			return err
		}
		lastErr = err
		if round >= c.opts.Retries {
			return lastErr
		}
		if !c.sleep(c.opts.backoff(round)) {
			return errors.Join(ErrClientClosed, lastErr)
		}
	}
}

func (c *Client) rejoinOnce(id wire.BPID, myAddr string) error {
	req := &wire.Envelope{
		Kind: wire.KindLigloRejoin,
		ID:   wire.NewMsgID(),
		TTL:  1,
		Body: wire.Marshal(&rejoinReq{ID: id, Addr: myAddr}),
	}
	resp, err := c.callRing("rejoin", id.LIGLO, req)
	if err != nil {
		return err
	}
	r, err := unmarshal(resp.Body, new(rejoinResp), "rejoin reply")
	if err != nil {
		return err
	}
	if r.Err != "" {
		switch r.Err {
		case ErrUnknown.Error():
			return ErrUnknown
		case ErrWrongHome.Error():
			return ErrWrongHome
		}
		return errors.New(r.Err)
	}
	return nil
}

// Deregister announces a graceful leave to the node's home server so the
// member is marked offline immediately, without waiting for a probe sweep
// to time out. Transport failures retry with exponential backoff; protocol
// rejections (ErrUnknown, ErrWrongHome) are terminal. The BPID stays
// valid — Rejoin brings the member back under the same identity.
func (c *Client) Deregister(id wire.BPID) error {
	var lastErr error
	for round := 0; ; round++ {
		err := c.deregisterOnce(id)
		if err == nil || errors.Is(err, ErrUnknown) || errors.Is(err, ErrWrongHome) {
			return err
		}
		lastErr = err
		if round >= c.opts.Retries {
			return lastErr
		}
		if !c.sleep(c.opts.backoff(round)) {
			return errors.Join(ErrClientClosed, lastErr)
		}
	}
}

func (c *Client) deregisterOnce(id wire.BPID) error {
	req := &wire.Envelope{
		Kind: wire.KindLigloDeregister,
		ID:   wire.NewMsgID(),
		TTL:  1,
		Body: wire.Marshal(&deregisterReq{ID: id}),
	}
	resp, err := c.callRing("deregister", id.LIGLO, req)
	if err != nil {
		return err
	}
	r, err := unmarshal(resp.Body, new(deregisterResp), "deregister reply")
	if err != nil {
		return err
	}
	if r.Err != "" {
		switch r.Err {
		case ErrUnknown.Error():
			return ErrUnknown
		case ErrWrongHome.Error():
			return ErrWrongHome
		}
		return errors.New(r.Err)
	}
	return nil
}

// Lookup resolves a peer's current address and online status by asking
// the peer's home server (extracted from the BPID).
func (c *Client) Lookup(id wire.BPID) (addr string, online bool, err error) {
	req := &wire.Envelope{
		Kind: wire.KindLigloLookup,
		ID:   wire.NewMsgID(),
		TTL:  1,
		Body: wire.Marshal(&lookupReq{ID: id}),
	}
	resp, err := c.callRing("lookup", id.LIGLO, req)
	if err != nil {
		return "", false, err
	}
	r, err := unmarshal(resp.Body, new(lookupResp), "lookup reply")
	if err != nil {
		return "", false, err
	}
	if r.Err != "" {
		if r.Err == ErrWrongHome.Error() {
			return "", false, ErrWrongHome
		}
		return "", false, errors.New(r.Err)
	}
	if !r.Found {
		return "", false, fmt.Errorf("%w: %v", ErrUnknown, id)
	}
	return r.Addr, r.Online, nil
}

// Peers asks a server for up to max online members (excluding self, when
// self was issued by that server). Use it to replenish a depleted peer
// set without re-registering.
func (c *Client) Peers(server string, self wire.BPID, max int) ([]PeerInfo, error) {
	req := &wire.Envelope{
		Kind: wire.KindLigloPeers,
		ID:   wire.NewMsgID(),
		TTL:  1,
		Body: wire.Marshal(&peersReq{Self: self, Max: max}),
	}
	resp, err := c.call("peers", server, req)
	if err != nil {
		return nil, err
	}
	r, err := unmarshal(resp.Body, new(peersResp), "peers reply")
	if err != nil {
		return nil, err
	}
	if r.Err != "" {
		return nil, errors.New(r.Err)
	}
	return r.Peers, nil
}
