package chord

import (
	"errors"
	"fmt"

	"bestpeer/internal/wire"
)

// ErrBadMessage reports a malformed chord-protocol payload.
var ErrBadMessage = errors.New("chord: malformed message")

// Payload versions this build emits. Every chord body leads with its
// version so fields can grow without new message kinds: a newer version
// may trail bytes this build does not understand and is rejected only
// when truncated (wire.Fields.Version; the Depart precedent in
// internal/core).
const (
	chordLookupVersion = 1
	chordNotifyVersion = 1
	chordProbeVersion  = 1
)

// maxRefs bounds decoded NodeRef lists so a corrupt length prefix cannot
// trigger a giant allocation; no real successor list approaches it.
const maxRefs = 1024

// LookupEnvelope frames a lookup for k exactly as a live node forwards
// it — the bench harness routes these through its simulated network so
// message and byte counts reflect real wire frames.
func LookupEnvelope(k Key, hops int) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindChordLookup, ID: wire.NewMsgID(), TTL: 1,
		Body: wire.Marshal(&lookupReq{Version: chordLookupVersion, Key: k, Hops: uint64(hops)}),
	}
}

// LookupOKEnvelope frames the owner reply to a lookup, as sent on the
// live wire.
func LookupOKEnvelope(owner NodeRef, hops int) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindChordLookupOK, ID: wire.NewMsgID(), TTL: 1,
		Body: wire.Marshal(&lookupOK{Version: chordLookupVersion, Owner: owner, Hops: uint64(hops)}),
	}
}

// unmarshal parses b into m; what names the payload in the error, which
// wraps ErrBadMessage.
func unmarshal[M wire.Message](b []byte, m M, what string) (M, error) {
	if err := wire.Unmarshal(b, m); err != nil {
		var none M
		return none, fmt.Errorf("%w: %s: %v", ErrBadMessage, what, err)
	}
	return m, nil
}

// Fields describes a node reference as it travels inside chord payloads.
func (r *NodeRef) Fields(f *wire.Fields) {
	f.Uvarint((*uint64)(&r.Key))
	f.String(&r.Addr)
}

// lookupReq asks for the owner of a key (KindChordLookup). Hops counts
// forwarding steps already taken, bounding recursive routing.
type lookupReq struct {
	Version uint64
	Key     Key
	Hops    uint64
}

func (m *lookupReq) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordLookupVersion)
	f.Uvarint((*uint64)(&m.Key))
	f.Uvarint(&m.Hops)
}

// lookupOK answers a lookup (KindChordLookupOK): the owning node and the
// total hops the request travelled.
type lookupOK struct {
	Version uint64
	Err     string
	Owner   NodeRef
	Hops    uint64
}

func (m *lookupOK) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordLookupVersion)
	f.String(&m.Err)
	m.Owner.Fields(f)
	f.Uvarint(&m.Hops)
}

// notifyMsg is the stabilize notify (KindChordNotify): Self tells the
// receiver it may be its predecessor. With Leaving set it is instead the
// graceful-leave handoff — Self is departing and Repl (its other
// neighbor) is the receiver's replacement candidate.
type notifyMsg struct {
	Version uint64
	Self    NodeRef
	Leaving bool
	Repl    NodeRef
}

func (m *notifyMsg) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordNotifyVersion)
	m.Self.Fields(f)
	f.Bool(&m.Leaving)
	m.Repl.Fields(f)
}

// notifyOK acknowledges a notify (KindChordNotifyOK).
type notifyOK struct {
	Version uint64
	Err     string
}

func (m *notifyOK) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordNotifyVersion)
	f.String(&m.Err)
}

// probeReq asks a node for its neighbors (KindChordProbe) — the
// stabilize and finger-maintenance probe, doubling as a liveness check.
// From lets the probed node learn about the prober for free.
type probeReq struct {
	Version uint64
	From    NodeRef
}

func (m *probeReq) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordProbeVersion)
	m.From.Fields(f)
}

// probeOK is the probe reply (KindChordProbeOK): the probed node's
// identity, predecessor (when known) and successor list — everything
// stabilization needs in one round trip.
type probeOK struct {
	Version uint64
	Err     string
	Self    NodeRef
	HasPred bool
	Pred    NodeRef
	Succs   []NodeRef
}

func (m *probeOK) Fields(f *wire.Fields) {
	f.Version(&m.Version, chordProbeVersion)
	f.String(&m.Err)
	m.Self.Fields(f)
	f.Bool(&m.HasPred)
	m.Pred.Fields(f)
	wire.List(f, &m.Succs, maxRefs, (*NodeRef).Fields)
}
