// Package gnutella implements a Gnutella 0.4-style servant, the protocol
// the paper compares BestPeer against (via the FURI servant). The two
// properties that matter for the comparison are faithfully reproduced:
//
//  1. A servant's peer set is fixed — there is no reconfiguration, so
//     every run of the same query traverses the same path.
//  2. QueryHit descriptors are routed back along the reverse of the query
//     path, hop by hop, using per-GUID routing state — answers are not
//     returned directly.
//
// Ping/Pong discovery, TTL/Hops handling and GUID-based duplicate
// suppression follow the classic protocol.
package gnutella

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// ErrClosed reports use after Close.
var ErrClosed = errors.New("gnutella: servant closed")

// Hit is one QueryHit entry delivered to the query's initiator.
type Hit struct {
	// Origin is the address of the servant holding the file.
	Origin string
	// Name is the matching file name.
	Name string
	// At is the arrival time at the initiator, from query start.
	At time.Duration
	// Hops is how many hops the hit travelled back.
	Hops int
}

// Config configures a servant.
type Config struct {
	// Network supplies connectivity.
	Network transport.Network
	// ListenAddr is the address to bind.
	ListenAddr string
	// Store holds the servant's shared files. Gnutella shares file
	// names; Match runs against names and keywords as usual.
	Store *storm.Store
}

// queryMsg is the KindGnuQuery payload.
type queryMsg struct {
	Search string
}

func (q *queryMsg) Fields(f *wire.Fields) { f.String(&q.Search) }

// hitMsg is the KindGnuQueryHit payload.
type hitMsg struct {
	Origin string
	Names  []string
}

func (h *hitMsg) Fields(f *wire.Fields) {
	f.String(&h.Origin)
	f.Strings(&h.Names)
}

// pongMsg is the KindGnuPong payload.
type pongMsg struct {
	Addr  string
	Files uint64
}

func (p *pongMsg) Fields(f *wire.Fields) {
	f.String(&p.Addr)
	f.Uvarint(&p.Files)
}

type queryState struct {
	mu     sync.Mutex
	start  time.Time
	hits   []Hit
	target int
	done   chan struct{}
	closed bool
}

// Pong is a discovery response delivered to Ping.
type Pong struct {
	Addr  string
	Files uint64
}

type pingState struct {
	mu    sync.Mutex
	pongs []Pong
}

// Servant is one Gnutella node.
type Servant struct {
	cfg   Config
	store *storm.Store
	msgr  *transport.Messenger

	mu     sync.Mutex
	peers  []string
	routes map[wire.MsgID]string // GUID -> upstream hop
	seen   map[wire.MsgID]bool
	closed bool

	queries sync.Map // GUID -> *queryState
	pings   sync.Map // GUID -> *pingState

	// Stats.
	HitsRouted uint64
	// SendsFailed counts descriptors the transport refused or dropped
	// (unreachable, suspect or overloaded peers) — flooding is best-effort
	// and continues, but the loss stays visible to benchmarks.
	SendsFailed uint64
	Executed    uint64
}

// NewServant starts a servant.
func NewServant(cfg Config) (*Servant, error) {
	if cfg.Store == nil || cfg.Network == nil {
		return nil, errors.New("gnutella: Network and Store are required")
	}
	s := &Servant{
		cfg:    cfg,
		store:  cfg.Store,
		routes: make(map[wire.MsgID]string),
		seen:   make(map[wire.MsgID]bool),
	}
	m, err := transport.NewMessenger(cfg.Network, cfg.ListenAddr, s.handle)
	if err != nil {
		return nil, err
	}
	s.msgr = m
	return s, nil
}

// Addr returns the servant's address.
func (s *Servant) Addr() string { return s.msgr.Addr() }

// SetPeers fixes the servant's peer set (no reconfiguration, ever).
func (s *Servant) SetPeers(addrs []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append([]string(nil), addrs...)
}

// Peers returns the fixed peer set.
func (s *Servant) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.peers...)
}

// Close shuts the servant down.
func (s *Servant) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.msgr.Close()
}

func (s *Servant) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Servant) handle(env *wire.Envelope) {
	if s.isClosed() {
		return
	}
	switch env.Kind {
	case wire.KindGnuPing:
		s.handlePing(env)
	case wire.KindGnuPong:
		s.routeBack(env, func() {
			if v, ok := s.pings.Load(env.ID); ok {
				var p pongMsg
				if wire.Unmarshal(env.Body, &p) == nil {
					ps := v.(*pingState)
					ps.mu.Lock()
					ps.pongs = append(ps.pongs, Pong{Addr: p.Addr, Files: p.Files})
					ps.mu.Unlock()
				}
			}
		})
	case wire.KindGnuQuery:
		s.handleQuery(env)
	case wire.KindGnuQueryHit:
		s.routeBack(env, func() { s.deliverHit(env) })
	}
}

// handlePing answers with a Pong (routed back) and floods the Ping.
func (s *Servant) handlePing(env *wire.Envelope) {
	if env.Expired() || s.markSeenAndRoute(env) {
		return
	}
	s.send(env.From, &wire.Envelope{
		Kind: wire.KindGnuPong, ID: env.ID, TTL: env.Hops + 1,
		From: s.Addr(), To: env.From,
		Body: wire.Marshal(&pongMsg{Addr: s.Addr(), Files: uint64(s.store.Len())}),
	})
	s.flood(env)
}

// handleQuery executes the search locally, sends a QueryHit back along
// the reverse path, and floods the query onward.
func (s *Servant) handleQuery(env *wire.Envelope) {
	if env.Expired() || s.markSeenAndRoute(env) {
		return
	}
	var q queryMsg
	if wire.Unmarshal(env.Body, &q) != nil {
		return
	}
	matches, err := s.store.Match(q.Search)
	s.mu.Lock()
	s.Executed++
	s.mu.Unlock()
	if err == nil && len(matches) > 0 {
		names := make([]string, len(matches))
		for i, m := range matches {
			names[i] = m.Name
		}
		// The hit travels back through the node the query arrived from.
		// The hit starts at hop 1: it has one link to travel to reach the
		// upstream node, mirroring the query's initial Hops convention.
		s.send(env.From, &wire.Envelope{
			Kind: wire.KindGnuQueryHit, ID: env.ID, TTL: env.Hops + 1, Hops: 1,
			From: s.Addr(), To: env.From,
			Body: wire.Marshal(&hitMsg{Origin: s.Addr(), Names: names}),
		})
	}
	s.flood(env)
}

// markSeenAndRoute records the descriptor GUID and its upstream hop.
// It reports true when the descriptor is a duplicate.
func (s *Servant) markSeenAndRoute(env *wire.Envelope) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[env.ID] {
		return true
	}
	s.seen[env.ID] = true
	s.routes[env.ID] = env.From
	return false
}

// flood forwards a descriptor to all peers except the upstream hop.
// Copies that would arrive expired are not sent.
func (s *Servant) flood(env *wire.Envelope) {
	if env.TTL <= 1 {
		return
	}
	s.mu.Lock()
	peers := append([]string(nil), s.peers...)
	s.mu.Unlock()
	for _, p := range peers {
		if p == env.From {
			continue
		}
		s.send(p, env.Forwarded(s.Addr(), p))
	}
}

// routeBack forwards a response descriptor one hop toward the initiator,
// or delivers it locally when this servant originated the request.
func (s *Servant) routeBack(env *wire.Envelope, deliver func()) {
	if _, mine := s.queries.Load(env.ID); mine {
		deliver()
		return
	}
	if _, mine := s.pings.Load(env.ID); mine {
		deliver()
		return
	}
	s.mu.Lock()
	up, ok := s.routes[env.ID]
	if ok {
		s.HitsRouted++
	}
	s.mu.Unlock()
	if ok && up != "" {
		s.send(up, env.Forwarded(s.Addr(), up))
	}
}

func (s *Servant) deliverHit(env *wire.Envelope) {
	v, ok := s.queries.Load(env.ID)
	if !ok {
		return
	}
	var h hitMsg
	if wire.Unmarshal(env.Body, &h) != nil {
		return
	}
	qs := v.(*queryState)
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.closed {
		return
	}
	at := time.Since(qs.start)
	for _, name := range h.Names {
		qs.hits = append(qs.hits, Hit{Origin: h.Origin, Name: name, At: at, Hops: int(env.Hops)})
	}
	if qs.target > 0 && len(qs.hits) >= qs.target {
		qs.closed = true
		close(qs.done)
	}
}

func (s *Servant) send(to string, env *wire.Envelope) {
	if err := s.msgr.Send(to, env); err != nil {
		// Flooding is best-effort: an unreachable peer never stalls the
		// rest, but the drop is counted rather than silently swallowed.
		s.mu.Lock()
		s.SendsFailed++
		s.mu.Unlock()
	}
}

// QueryOptions tunes a query.
type QueryOptions struct {
	// TTL bounds flooding. Zero defaults to 7, the protocol's classic
	// value.
	TTL uint8
	// Timeout is the collection window. Zero defaults to one second.
	Timeout time.Duration
	// WaitHits stops early after this many hits.
	WaitHits int
}

// Query floods a search and collects QueryHits routed back to us.
func (s *Servant) Query(search string, opts QueryOptions) ([]Hit, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	ttl := opts.TTL
	if ttl == 0 {
		ttl = 7
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	guid := wire.NewMsgID()
	qs := &queryState{start: time.Now(), target: opts.WaitHits, done: make(chan struct{})}
	s.queries.Store(guid, qs)
	defer s.queries.Delete(guid)

	s.mu.Lock()
	s.seen[guid] = true
	peers := append([]string(nil), s.peers...)
	s.mu.Unlock()

	// Local matches count as immediate hits.
	if matches, err := s.store.Match(search); err == nil {
		qs.mu.Lock()
		for _, m := range matches {
			qs.hits = append(qs.hits, Hit{Origin: s.Addr(), Name: m.Name, At: time.Since(qs.start)})
		}
		qs.mu.Unlock()
	}

	body := wire.Marshal(&queryMsg{Search: search})
	for _, p := range peers {
		s.send(p, &wire.Envelope{
			Kind: wire.KindGnuQuery, ID: guid, TTL: ttl, Hops: 1,
			From: s.Addr(), To: p, Body: body,
		})
	}
	select {
	case <-qs.done:
	case <-time.After(timeout):
	}
	qs.mu.Lock()
	out := append([]Hit(nil), qs.hits...)
	qs.closed = true
	qs.mu.Unlock()
	return out, nil
}

// Ping floods a Ping and collects Pongs for the given window — the
// protocol's network discovery.
func (s *Servant) Ping(timeout time.Duration) []Pong {
	if s.isClosed() {
		return nil
	}
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	guid := wire.NewMsgID()
	ps := &pingState{}
	s.pings.Store(guid, ps)
	defer s.pings.Delete(guid)

	s.mu.Lock()
	s.seen[guid] = true
	peers := append([]string(nil), s.peers...)
	s.mu.Unlock()

	for _, p := range peers {
		s.send(p, &wire.Envelope{
			Kind: wire.KindGnuPing, ID: guid, TTL: 7, Hops: 1,
			From: s.Addr(), To: p,
		})
	}
	time.Sleep(timeout)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]Pong(nil), ps.pongs...)
}

// String describes the servant.
func (s *Servant) String() string {
	return fmt.Sprintf("gnutella(%s, peers=%d)", s.Addr(), len(s.Peers()))
}
