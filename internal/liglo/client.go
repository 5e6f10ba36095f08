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

// Failure handling: the retries of a failed RegisterAny round, Rejoin or
// Deregister call (retries+1 attempts in all) after a backoff that doubles
// from backoffBase. Only transport failures retry; protocol rejections are
// terminal. Each exchange is one transport.Call, bounded there.
const (
	retries     = 2
	backoffBase = 50 * time.Millisecond
)

// Client talks to LIGLO servers. Connections are per-call: registration
// and rejoin happen once per session and lookups are rare, so caching
// buys nothing and a stateless client is simpler to reason about.
type Client struct {
	network transport.Network

	stop     chan struct{}
	stopOnce sync.Once

	// servers is the list RegisterAny was last given. When a BPID's
	// issuing server is unreachable, lookups, rejoins and deregisters try
	// these and follow ring redirects to whichever member now owns the key.
	mu      sync.Mutex
	servers []string

	// Per-operation call counters, keyed by op name.
	calls map[string]*obs.Counter
	fails map[string]*obs.Counter
}

// NewClient returns a client that dials over the given network and
// publishes its call counters to reg. Nil means a private registry; a
// node passes its own so LIGLO traffic shows up on /metrics.
func NewClient(network transport.Network, reg *obs.Registry) *Client {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		network: network,
		stop:    make(chan struct{}),
		calls:   make(map[string]*obs.Counter),
		fails:   make(map[string]*obs.Counter),
	}
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

// call performs one transport.Call with a server; the reply must be of a
// kind in want. op names the operation for metrics.
func (c *Client) call(op, server string, req *wire.Envelope, want ...wire.Kind) (*wire.Envelope, error) {
	c.calls[op].Inc()
	resp, err := transport.Call(c.network, server, req, want...)
	if err != nil {
		c.fails[op].Inc()
		return nil, fmt.Errorf("liglo: %w", err)
	}
	return resp, nil
}

// maxRedirects bounds how many ring redirects one logical call follows —
// a converging ring answers in one hop; more than a few means the ring's
// ownership view is still settling and the caller should back off.
const maxRedirects = 4

// statusReply is a reply to a BPID-addressed request: it carries the
// server's error text.
type statusReply interface {
	wire.Message
	status() string
}

func (r *rejoinResp) status() string     { return r.Err }
func (r *lookupResp) status() string     { return r.Err }
func (r *deregisterResp) status() string { return r.Err }

// callRing performs one logical exchange about a BPID whose issuing server
// is primary, decoding the answer into out: try the primary, fall back to
// the RegisterAny list on transport failure, and follow KindRingRedirect
// replies to the owning server. A fallback that answers ErrWrongHome (a
// standalone server) is a miss, not an answer, so without a ring the
// primary's transport error stands and the caller retries the home.
func (c *Client) callRing(op, primary string, req *wire.Envelope, out statusReply) error {
	queue := []string{primary}
	c.mu.Lock()
	for _, s := range c.servers {
		if s != primary {
			queue = append(queue, s)
		}
	}
	c.mu.Unlock()
	var lastErr error
	redirects := 0
	for len(queue) > 0 {
		target := queue[0]
		queue = queue[1:]
		resp, err := c.call(op, target, req, wire.KindLigloStatus, wire.KindRingRedirect)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Kind == wire.KindRingRedirect {
			m, derr := unmarshal(resp.Body, new(redirectMsg), "redirect")
			if derr != nil {
				return derr
			}
			lastErr = fmt.Errorf("liglo: %s redirected to %s", op, m.Addr)
			if redirects < maxRedirects && m.Addr != target {
				redirects++
				queue = append([]string{m.Addr}, queue...)
			}
			continue
		}
		if _, err := unmarshal(resp.Body, out, op+" reply"); err != nil {
			return err
		}
		if target == primary || out.status() != ErrWrongHome.Error() {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("liglo: no servers reachable")
	}
	return lastErr
}

// statusErr maps a reply's error text back to the package's errors.
func statusErr(text string) error {
	switch text {
	case "":
		return nil
	case ErrUnknown.Error():
		return ErrUnknown
	case ErrWrongHome.Error():
		return ErrWrongHome
	case ErrFull.Error():
		return ErrFull
	}
	return errors.New(text)
}

// Register asks the server for a BPID, reporting myAddr as the current
// address. It returns the issued identity and the initial direct-peer
// list. A capacity-limited server returns ErrFull — seek another server.
func (c *Client) Register(server, myAddr string) (wire.BPID, []PeerInfo, error) {
	resp, err := c.call("register", server, reply(wire.KindLigloRegister, wire.Marshal(&registerReq{Addr: myAddr})), wire.KindLigloRegisterd)
	if err != nil {
		return wire.BPID{}, nil, err
	}
	r, err := unmarshal(resp.Body, new(registerResp), "registered")
	if err != nil {
		return wire.BPID{}, nil, err
	}
	if err := statusErr(r.Err); err != nil {
		return wire.BPID{}, nil, err
	}
	return r.ID, r.Peers, nil
}

// RegisterAny tries each server in order until one accepts — the paper's
// "the node has to seek for another LIGLO" behaviour when a server is at
// capacity or down. A round where every server was unreachable is
// retried with exponential backoff, bounded by retries; a round where
// every server answered ErrFull is terminal (backing off will not free
// capacity a human did not). The client keeps servers as the fallback of
// later lookups, rejoins and deregisters.
func (c *Client) RegisterAny(servers []string, myAddr string) (wire.BPID, []PeerInfo, error) {
	if len(servers) == 0 {
		return wire.BPID{}, nil, errors.New("liglo: no servers given")
	}
	c.mu.Lock()
	c.servers = append([]string(nil), servers...)
	c.mu.Unlock()
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
		if allFull || round >= retries {
			return wire.BPID{}, nil, lastErr
		}
		if !c.sleep(backoffBase << round) {
			return wire.BPID{}, nil, errors.Join(ErrClientClosed, lastErr)
		}
	}
}

// Rejoin reports the node's current address to its home server after a
// reconnect, retrying transport failures with exponential backoff.
// Protocol rejections (ErrUnknown, ErrWrongHome) are terminal.
func (c *Client) Rejoin(id wire.BPID, myAddr string) error {
	return c.retry(func() error {
		r := new(rejoinResp)
		if err := c.callRing("rejoin", id.LIGLO, reply(wire.KindLigloRejoin, wire.Marshal(&rejoinReq{ID: id, Addr: myAddr})), r); err != nil {
			return err
		}
		return statusErr(r.Err)
	})
}

// Deregister announces a graceful leave to the node's home server so the
// member is marked offline immediately, without waiting for a probe sweep
// to time out. Transport failures retry with exponential backoff; protocol
// rejections (ErrUnknown, ErrWrongHome) are terminal. The BPID stays
// valid — Rejoin brings the member back under the same identity.
func (c *Client) Deregister(id wire.BPID) error {
	return c.retry(func() error {
		r := new(deregisterResp)
		if err := c.callRing("deregister", id.LIGLO, reply(wire.KindLigloDeregister, wire.Marshal(&deregisterReq{ID: id})), r); err != nil {
			return err
		}
		return statusErr(r.Err)
	})
}

// retry runs once until it succeeds or fails with a protocol rejection,
// reattempting transport failures up to retries times with backoff.
func (c *Client) retry(once func() error) error {
	for round := 0; ; round++ {
		err := once()
		if err == nil || errors.Is(err, ErrUnknown) || errors.Is(err, ErrWrongHome) || round >= retries {
			return err
		}
		if !c.sleep(backoffBase << round) {
			return errors.Join(ErrClientClosed, err)
		}
	}
}

// Lookup resolves a peer's current address and online status by asking
// the peer's home server (extracted from the BPID).
func (c *Client) Lookup(id wire.BPID) (addr string, online bool, err error) {
	r := new(lookupResp)
	if err := c.callRing("lookup", id.LIGLO, reply(wire.KindLigloLookup, wire.Marshal(&lookupReq{ID: id})), r); err != nil {
		return "", false, err
	}
	if err := statusErr(r.Err); err != nil {
		return "", false, err
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
	resp, err := c.call("peers", server, reply(wire.KindLigloPeers, wire.Marshal(&peersReq{Self: self, Max: max})), wire.KindLigloPeersList)
	if err != nil {
		return nil, err
	}
	r, err := unmarshal(resp.Body, new(peersResp), "peers reply")
	if err != nil {
		return nil, err
	}
	if err := statusErr(r.Err); err != nil {
		return nil, err
	}
	return r.Peers, nil
}
