// Package agent implements BestPeer's mobile-agent engine. An agent is a
// named class plus serialized state; it travels inside wire envelopes, is
// cloned to every directly connected peer, executes against the local
// storage manager, and sends its results directly back to the base node.
//
// Code mobility workaround: Go cannot load machine code at runtime the way
// Java loads classes, so every agent class is compiled into the binary and
// registered in a Registry. Whether a node has "received" a class is
// tracked explicitly: executing an uninstalled class fails, the node
// requests the class, and the origin ships the class payload (a code blob
// with realistic size and a checksum). Installing verifies the blob and
// enables the class. This preserves everything the paper measures about
// code shipping — transfer bytes, reconstruction cost, cache hits — while
// keeping execution safe.
package agent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
)

// Registry and engine errors.
var (
	errUnknownClass  = errors.New("agent: unknown class")
	errNotInstalled  = errors.New("agent: class not installed at this node")
	errBadClassBlob  = errors.New("agent: class payload failed verification")
	errBadPacket     = errors.New("agent: malformed agent packet")
	errDuplicateName = errors.New("agent: class already registered")
)

// Result is one answer produced by an agent at a peer. Mode 2 (§2 of the
// paper) sends results with Data stripped — only the indication that the
// object exists.
type Result struct {
	// Name of the matching object at the answering peer.
	Name string
	// Data is the object content (empty in hint mode). In a decoded
	// batch it is a read-only view (cap == len) of the body handed to
	// DecodeResults — for an answer off the network, of the frame's own
	// buffer — so a retained 1 KB answer keeps its whole ≈ 10 KB frame
	// alive. A query retains all answers of a batch together, which
	// keeps what is held within a few percent of what is counted.
	Data []byte
}

// Context is the execution environment a host provides to a visiting
// agent: the local store and information about where the agent is and how
// far it has travelled.
type Context struct {
	// Store is the node's StorM instance holding its sharable data.
	Store *storm.Store
	// NodeAddr is the executing node's address.
	NodeAddr string
	// Hops is the number of hops the agent travelled to get here.
	Hops int
	// Requester identifies who sent the agent, for access-control
	// decisions by active objects.
	Requester wire.BPID
	// AccessLevel is the clearance the requester presents. Active
	// objects filter content against it.
	AccessLevel int
	// ActiveNodes resolves active-element names for active objects.
	// May be nil when the node shares only static files.
	ActiveNodes *ActiveSet
}

// Agent is a mobile task. Implementations must be stateless apart from
// what State captures: a clone reconstructed from State at another node
// must behave identically.
type Agent interface {
	// Class returns the agent's class name.
	Class() string
	// State serializes the agent for travel.
	State() ([]byte, error)
	// Execute runs the agent at a node and returns its answers.
	Execute(ctx *Context) ([]Result, error)
}

// Factory constructs agents of one class and owns the class's shippable
// code payload.
type Factory interface {
	// Class returns the class name.
	Class() string
	// Code returns the class payload shipped to nodes that lack the
	// class. Its length models the class's bytecode size.
	Code() []byte
	// New reconstructs an agent from serialized state.
	New(state []byte) (Agent, error)
}

// Registry tracks the agent classes a node knows (compiled in) and which
// of them are installed (received). It is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
	installed map[string]bool

	// Stats.
	Installs   uint64
	ExecDenied uint64
	CodeServed uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		factories: make(map[string]Factory),
		installed: make(map[string]bool),
	}
}

// Register adds a factory and marks its class installed — the node is an
// origin for this class.
func (r *Registry) Register(f Factory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[f.Class()]; dup {
		return fmt.Errorf("%w: %q", errDuplicateName, f.Class())
	}
	r.factories[f.Class()] = f
	r.installed[f.Class()] = true
	return nil
}

// RegisterDormant adds a factory without installing it: the node links
// the class but behaves as though it has never received it, so the first
// incoming agent of this class triggers a class transfer.
func (r *Registry) RegisterDormant(f Factory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[f.Class()]; dup {
		return fmt.Errorf("%w: %q", errDuplicateName, f.Class())
	}
	r.factories[f.Class()] = f
	return nil
}

// Installed reports whether the class is present and installed.
func (r *Registry) Installed(class string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.installed[class]
}

// Known reports whether the class is linked into this node at all.
func (r *Registry) Known(class string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.factories[class]
	return ok
}

// Code returns the shippable payload for an installed class.
func (r *Registry) Code(class string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.factories[class]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownClass, class)
	}
	if !r.installed[class] {
		return nil, fmt.Errorf("%w: %q", errNotInstalled, class)
	}
	r.CodeServed++
	return f.Code(), nil
}

// Install receives a shipped class payload, verifies it against the
// compiled-in factory's code, and enables the class. Installing an
// already-installed class is a no-op.
func (r *Registry) Install(class string, code []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.factories[class]
	if !ok {
		return fmt.Errorf("%w: %q (not linked into this binary)", errUnknownClass, class)
	}
	if r.installed[class] {
		return nil
	}
	want := f.Code()
	if len(code) != len(want) || crc32.ChecksumIEEE(code) != crc32.ChecksumIEEE(want) {
		return fmt.Errorf("%w: %q", errBadClassBlob, class)
	}
	r.installed[class] = true
	r.Installs++
	return nil
}

// New reconstructs an agent of the given class from state. The class must
// be installed.
func (r *Registry) New(class string, state []byte) (Agent, error) {
	r.mu.RLock()
	f, ok := r.factories[class]
	inst := r.installed[class]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownClass, class)
	}
	if !inst {
		r.mu.Lock()
		r.ExecDenied++
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errNotInstalled, class)
	}
	return f.New(state)
}

// Packet is the travelling form of an agent: what the envelope body of a
// KindAgent message contains.
type Packet struct {
	// Class names the agent class.
	Class string
	// State is the agent's serialized state.
	State []byte
	// Base is the address answers are sent directly to.
	Base string
	// BaseID is the base node's BestPeer identity.
	BaseID wire.BPID
	// AccessLevel is the clearance the base node presents.
	AccessLevel int
	// Mode selects answer handling: 1 returns data directly, 2 returns
	// hints only (§2 of the paper).
	Mode uint8
}

// EncodePacket serializes the packet for an envelope body.
func EncodePacket(p *Packet) []byte {
	var e wire.Encoder
	e.String(p.Class)
	e.Bytes2(p.State)
	e.String(p.Base)
	e.BPID(p.BaseID)
	e.Varint(int64(p.AccessLevel))
	e.Uint8(p.Mode)
	return e.Bytes()
}

// DecodePacket parses an envelope body into a packet.
func DecodePacket(body []byte) (*Packet, error) {
	d := wire.NewDecoder(body)
	p := &Packet{
		Class: d.String(),
		State: d.Bytes2(),
		Base:  d.String(),
	}
	p.BaseID = d.BPID()
	p.AccessLevel = int(d.Varint())
	p.Mode = d.Uint8()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadPacket, err)
	}
	if p.Class == "" {
		return nil, fmt.Errorf("%w: empty class", errBadPacket)
	}
	return p, nil
}

// EncodeResults serializes a result batch for a KindResult or KindHint
// envelope body. answered is the hop count at the answering peer, which
// MinHops reconfiguration consumes.
func EncodeResults(results []Result, hops int, from wire.BPID, fromAddr string) []byte {
	// Sized once from a bound (every varint at its longest): result
	// batches carry the objects themselves, and growing to 10 KB by
	// doubling allocates the batch twice over.
	size := len(fromAddr) + len(from.LIGLO) + 5*binary.MaxVarintLen64
	for _, r := range results {
		size += len(r.Name) + len(r.Data) + 2*binary.MaxVarintLen32
	}
	var e wire.Encoder
	e.Grow(size)
	e.String(fromAddr)
	e.BPID(from)
	e.Varint(int64(hops))
	e.Uvarint(uint64(len(results)))
	for _, r := range results {
		e.String(r.Name)
		e.Bytes2(r.Data)
	}
	return e.Bytes()
}

// ResultBatch is a decoded KindResult/KindHint body.
type ResultBatch struct {
	FromAddr string
	From     wire.BPID
	Hops     int
	Results  []Result
}

// DecodeResults parses a result batch. Each Result.Data is a view of
// body, not a copy: the caller gives body up to the batch.
func DecodeResults(body []byte) (*ResultBatch, error) {
	d := wire.NewDecoder(body)
	b := &ResultBatch{FromAddr: d.String()}
	b.From = d.BPID()
	b.Hops = int(d.Varint())
	// A result is at least its two length prefixes, so the bytes left
	// bound how many the count can honestly announce; a larger one is
	// refused before anything is allocated for it.
	n := d.Uvarint()
	if n > uint64(d.Remaining()/2) {
		return nil, errBadPacket
	}
	if n > 0 {
		b.Results = make([]Result, 0, n)
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		b.Results = append(b.Results, Result{Name: d.String(), Data: d.BytesView()})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadPacket, err)
	}
	return b, nil
}
