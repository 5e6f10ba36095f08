// Package cs implements the client/server comparators of the paper's
// evaluation (§4): a network of nodes where one process assumes the role
// of service consumer and the others are providers. Unlike BestPeer,
// answers travel back along the query path, hop by hop — the structural
// property that makes CS degrade on deep topologies. The base node
// dispatches either sequentially (single-thread CS, "SCS") or in parallel
// (multi-thread CS, "MCS").
//
// The paper's second CS implementation is used: a server acting as a
// client relays any answers from its own servers upstream immediately,
// without consolidating.
package cs

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
var ErrClosed = errors.New("cs: node closed")

// Answer is one result received at the base.
type Answer struct {
	// Origin is the address of the node that produced the answer.
	Origin string
	// Name is the matched object.
	Name string
	// Data is the object content.
	Data []byte
	// At is when the answer arrived at the base, from query start.
	At time.Duration
}

// Config configures a CS node.
type Config struct {
	// Network supplies connectivity.
	Network transport.Network
	// ListenAddr is the address to bind.
	ListenAddr string
	// Store holds the node's sharable objects.
	Store *storm.Store
	// SingleThread serializes all server-side work through one worker,
	// modelling the paper's single-thread CS server.
	SingleThread bool
}

// queryMsg is the KindCSQuery payload.
type queryMsg struct {
	Query string
	Base  string // for bookkeeping only; answers travel the path
}

func (q *queryMsg) Fields(f *wire.Fields) {
	f.String(&q.Query)
	f.String(&q.Base)
}

// answerMsg is the KindCSAnswer payload.
type answerMsg struct {
	Origin string
	Name   string
	Data   []byte
}

func (a *answerMsg) Fields(f *wire.Fields) {
	f.String(&a.Origin)
	f.String(&a.Name)
	f.Bytes(&a.Data)
}

type queryState struct {
	mu      sync.Mutex
	start   time.Time
	answers []Answer
	target  int
	done    chan struct{}
	closed  bool
}

// Node is one CS participant. It acts as a server for queries arriving
// from upstream and as a client toward its own servers (downstream
// peers), relaying their answers upstream.
type Node struct {
	cfg   Config
	store *storm.Store
	msgr  *transport.Messenger

	mu     sync.Mutex
	peers  []string // downstream servers
	routes map[wire.MsgID]string
	seen   map[wire.MsgID]bool
	closed bool

	queries sync.Map // qid -> *queryState

	// work serializes server-side handling in single-thread mode.
	work chan func()
	wg   sync.WaitGroup

	// Stats.
	Relayed  uint64
	Executed uint64
	// SendsFailed counts envelopes the transport refused or dropped
	// (unreachable, suspect or overloaded peers). The fan-out continues
	// regardless; the counter makes the loss visible to benchmarks.
	SendsFailed uint64
}

// NewNode starts a CS node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Store == nil || cfg.Network == nil {
		return nil, errors.New("cs: Network and Store are required")
	}
	n := &Node{
		cfg:    cfg,
		store:  cfg.Store,
		routes: make(map[wire.MsgID]string),
		seen:   make(map[wire.MsgID]bool),
	}
	if cfg.SingleThread {
		n.work = make(chan func(), 1024)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			// One poisoned work item must not kill the whole server loop.
			defer func() { _ = recover() }()
			for fn := range n.work {
				fn()
			}
		}()
	}
	m, err := transport.NewMessenger(cfg.Network, cfg.ListenAddr, n.handle)
	if err != nil {
		return nil, err
	}
	n.msgr = m
	return n, nil
}

// Addr returns the node's address.
func (n *Node) Addr() string { return n.msgr.Addr() }

// SetPeers sets the node's downstream servers.
func (n *Node) SetPeers(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append([]string(nil), addrs...)
}

// Close shuts the node down.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.msgr.Close()
	if n.work != nil {
		close(n.work)
		n.wg.Wait()
	}
	return err
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// dispatch runs fn on the single worker in single-thread mode, inline
// otherwise (the messenger already gives one goroutine per connection).
func (n *Node) dispatch(fn func()) {
	if n.work == nil {
		fn()
		return
	}
	defer func() {
		// A closed work channel during shutdown is fine; drop the task.
		recover() //nolint:errcheck
	}()
	n.work <- fn
}

func (n *Node) handle(env *wire.Envelope) {
	if n.isClosed() {
		return
	}
	switch env.Kind {
	case wire.KindCSQuery:
		n.dispatch(func() { n.handleQuery(env) })
	case wire.KindCSAnswer:
		n.dispatch(func() { n.handleAnswer(env) })
	}
}

// handleQuery serves a query: execute locally, answer upstream, forward
// downstream, and remember the upstream hop so downstream answers can be
// relayed back along the path.
func (n *Node) handleQuery(env *wire.Envelope) {
	if env.Expired() {
		return // TTL exhausted on arrival
	}
	var q queryMsg
	if wire.Unmarshal(env.Body, &q) != nil {
		return
	}
	n.mu.Lock()
	if n.seen[env.ID] {
		n.mu.Unlock()
		return
	}
	n.seen[env.ID] = true
	n.routes[env.ID] = env.From
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	// Local matches go upstream immediately.
	matches, err := n.store.Match(q.Query)
	n.mu.Lock()
	n.Executed++
	n.mu.Unlock()
	if err == nil {
		for _, obj := range matches {
			n.sendAnswer(env.From, env.ID, &answerMsg{
				Origin: n.Addr(), Name: obj.Name, Data: obj.Data,
			})
		}
	}
	// Forward to downstream servers (skip the upstream hop); copies that
	// would arrive expired are not sent.
	if env.TTL > 1 {
		for _, p := range peers {
			if p == env.From {
				continue
			}
			n.sendEnv(p, env.Forwarded(n.Addr(), p))
		}
	}
}

// handleAnswer relays a downstream answer one hop closer to the base, or
// delivers it if this node issued the query.
func (n *Node) handleAnswer(env *wire.Envelope) {
	a := new(answerMsg)
	if wire.Unmarshal(env.Body, a) != nil {
		return
	}
	if v, ok := n.queries.Load(env.ID); ok {
		qs := v.(*queryState)
		qs.mu.Lock()
		if !qs.closed {
			qs.answers = append(qs.answers, Answer{
				Origin: a.Origin, Name: a.Name, Data: a.Data, At: time.Since(qs.start),
			})
			if qs.target > 0 && len(qs.answers) >= qs.target {
				qs.closed = true
				close(qs.done)
			}
		}
		qs.mu.Unlock()
		return
	}
	n.mu.Lock()
	up, ok := n.routes[env.ID]
	if ok {
		n.Relayed++
	}
	n.mu.Unlock()
	if ok {
		n.sendAnswer(up, env.ID, a)
	}
}

func (n *Node) sendAnswer(to string, id wire.MsgID, a *answerMsg) {
	n.sendEnv(to, &wire.Envelope{
		Kind: wire.KindCSAnswer, ID: id, TTL: 1,
		From: n.Addr(), To: to, Body: wire.Marshal(a),
	})
}

func (n *Node) sendEnv(to string, env *wire.Envelope) {
	if err := n.msgr.Send(to, env); err != nil {
		// Unreachable peers must not break the fan-out, but the loss is
		// counted so a benchmark run can tell lossless from lossy.
		n.mu.Lock()
		n.SendsFailed++
		n.mu.Unlock()
	}
}

// QueryOptions tunes a CS query.
type QueryOptions struct {
	// TTL bounds forwarding depth. Zero defaults to 7.
	TTL uint8
	// Timeout is the collection window. Zero defaults to one second.
	Timeout time.Duration
	// WaitAnswers stops early after this many answers.
	WaitAnswers int
	// Sequential contacts servers one at a time, waiting for each
	// server's direct answers before moving on — single-thread CS
	// client behaviour.
	Sequential bool
	// PerPeerWait is how long a sequential client waits on each server.
	// Zero defaults to Timeout divided by the number of servers.
	PerPeerWait time.Duration
}

// Query executes a keyword query from this node as the base.
func (n *Node) Query(query string, opts QueryOptions) ([]Answer, error) {
	if n.isClosed() {
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
	qid := wire.NewMsgID()
	qs := &queryState{start: time.Now(), target: opts.WaitAnswers, done: make(chan struct{})}
	n.queries.Store(qid, qs)
	defer n.queries.Delete(qid)

	n.mu.Lock()
	n.seen[qid] = true
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	// The base's own store participates.
	if matches, err := n.store.Match(query); err == nil {
		qs.mu.Lock()
		for _, obj := range matches {
			qs.answers = append(qs.answers, Answer{
				Origin: n.Addr(), Name: obj.Name, Data: obj.Data, At: time.Since(qs.start),
			})
		}
		qs.mu.Unlock()
	}

	body := wire.Marshal(&queryMsg{Query: query, Base: n.Addr()})
	send := func(p string) {
		n.sendEnv(p, &wire.Envelope{
			Kind: wire.KindCSQuery, ID: qid, TTL: ttl, Hops: 1,
			From: n.Addr(), To: p, Body: body,
		})
	}

	if opts.Sequential {
		per := opts.PerPeerWait
		if per <= 0 && len(peers) > 0 {
			per = timeout / time.Duration(len(peers))
		}
		for _, p := range peers {
			send(p)
			// One connection at a time: wait out this server's window
			// before contacting the next.
			select {
			case <-qs.done:
			case <-time.After(per):
			}
		}
	} else {
		for _, p := range peers {
			send(p)
		}
		select {
		case <-qs.done:
		case <-time.After(timeout):
		}
	}

	qs.mu.Lock()
	out := append([]Answer(nil), qs.answers...)
	qs.closed = true
	qs.mu.Unlock()
	return out, nil
}

// String describes the node.
func (n *Node) String() string {
	mode := "multi-thread"
	if n.cfg.SingleThread {
		mode = "single-thread"
	}
	return fmt.Sprintf("cs(%s, %s)", n.Addr(), mode)
}
