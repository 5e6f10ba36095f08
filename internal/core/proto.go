package core

import (
	"errors"
	"fmt"

	"bestpeer/internal/wire"
)

// errBadMessage reports a malformed core-protocol payload.
var errBadMessage = errors.New("core: malformed message")

// unmarshal parses b into m; what names the payload in the error, which
// wraps errBadMessage.
func unmarshal[M wire.Message](b []byte, m M, what string) (M, error) {
	if err := wire.Unmarshal(b, m); err != nil {
		var none M
		return none, fmt.Errorf("%w: %s: %v", errBadMessage, what, err)
	}
	return m, nil
}

// peerFields describes a Peer inside a payload. It is a function, not a
// method: the facade re-exports Peer, and the visitor is no part of the
// public API.
func peerFields(p *Peer, f *wire.Fields) {
	f.BPID(&p.ID)
	f.String(&p.Addr)
}

// classWant asks the previous hop for an agent class the receiver lacks.
// A handler refuses an empty Class.
type classWant struct {
	Class string
}

func (w *classWant) Fields(f *wire.Fields) { f.String(&w.Class) }

// classShip carries a class payload to a node that requested it. A
// handler refuses an empty Class.
type classShip struct {
	Class string
	Code  []byte
}

func (s *classShip) Fields(f *wire.Fields) {
	f.String(&s.Class)
	f.Bytes(&s.Code)
}

// fetchReq is the mode-2 follow-up: after receiving hints, the base node
// asks an answering peer for the actual content of named objects.
type fetchReq struct {
	// Names are the objects to retrieve.
	Names []string
	// Base is where to send the data.
	Base string
	// BaseID identifies the requester for access control.
	BaseID wire.BPID
	// AccessLevel is the requester's clearance.
	AccessLevel int
}

func (r *fetchReq) Fields(f *wire.Fields) {
	f.Strings(&r.Names)
	f.String(&r.Base)
	f.BPID(&r.BaseID)
	f.Int(&r.AccessLevel)
}

// departVersion is the Depart payload version this build emits. The
// payload leads with the version so it can grow fields without a new
// message kind: any version decodes, trailing bytes from a newer sender
// are tolerated and just the fields this build understands are taken
// (wire.Fields.Version).
const departVersion = 1

// maxDepartHints caps how many replacement-neighbor hints a Depart
// carries — the departing node's other direct peers, offered so the
// receiver can backfill the lost edge without a LIGLO round trip.
const maxDepartHints = 4

// departMsg is a graceful-leave announcement to a direct peer.
type departMsg struct {
	Version uint64
	// ID is the departing node's identity (zero when it never joined).
	ID wire.BPID
	// Hints are replacement-neighbor candidates: the departing node's
	// other direct peers, excluding the recipient.
	Hints []Peer
}

func (m *departMsg) Fields(f *wire.Fields) {
	f.Version(&m.Version, departVersion)
	f.BPID(&m.ID)
	wire.List(f, &m.Hints, wire.MaxFrameSize, peerFields)
}

// peerListResp carries a node's current direct peers — the
// neighbor-of-neighbor candidates the repair loop backfills from before
// falling back to LIGLO. The request (KindPeerList) has an empty body.
type peerListResp struct {
	Peers []Peer
}

func (r *peerListResp) Fields(f *wire.Fields) {
	wire.List(f, &r.Peers, wire.MaxFrameSize, peerFields)
}
