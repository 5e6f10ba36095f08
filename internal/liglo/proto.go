// Package liglo implements the Location-Independent GLObal names lookup
// server and its client. A LIGLO server issues BestPeer identities
// (BPIDs), tracks each member's current address and online status, and
// answers lookups so peers can find each other across address changes.
//
// LIGLO is deliberately distributed: any number of servers coexist, each
// responsible only for the uniqueness of its own members' NodeIDs, and a
// capacity-limited server rejects new registrations so the node seeks
// another server (§3.4 of the paper).
package liglo

import (
	"errors"
	"fmt"

	"bestpeer/internal/wire"
)

// Protocol errors.
var (
	errBadRequest = errors.New("liglo: malformed request")
	errFull       = errors.New("liglo: server at capacity, seek another LIGLO")
	errUnknown    = errors.New("liglo: unknown member")
	errWrongHome  = errors.New("liglo: BPID belongs to a different server")
)

// unmarshal parses b into m; what names the payload in the error, which
// wraps errBadRequest.
func unmarshal[M wire.Message](b []byte, m M, what string) (M, error) {
	if err := wire.Unmarshal(b, m); err != nil {
		var none M
		return none, fmt.Errorf("%w: %s: %v", errBadRequest, what, err)
	}
	return m, nil
}

// PeerInfo pairs a member's identity with its last known address, as in
// the (BPID, IP) pairs LIGLO hands a newly registered node.
type PeerInfo struct {
	ID   wire.BPID
	Addr string
}

// peerInfoFields describes a PeerInfo inside a payload. It is a function,
// not a method: the facade re-exports PeerInfo, and the visitor is no
// part of the public API.
func peerInfoFields(p *PeerInfo, f *wire.Fields) {
	f.BPID(&p.ID)
	f.String(&p.Addr)
}

// registerReq asks for a BPID. Addr is the registrant's current address.
type registerReq struct {
	Addr string
}

func (r *registerReq) Fields(f *wire.Fields) { f.String(&r.Addr) }

// registerResp carries the issued BPID and an initial direct-peer list.
type registerResp struct {
	Err   string
	ID    wire.BPID
	Peers []PeerInfo
}

func (r *registerResp) Fields(f *wire.Fields) {
	f.String(&r.Err)
	f.BPID(&r.ID)
	wire.List(f, &r.Peers, wire.MaxFrameSize, peerInfoFields)
}

// rejoinReq reports a member's current address after reconnecting.
type rejoinReq struct {
	ID   wire.BPID
	Addr string
}

func (r *rejoinReq) Fields(f *wire.Fields) {
	f.BPID(&r.ID)
	f.String(&r.Addr)
}

// rejoinResp acknowledges a rejoin.
type rejoinResp struct {
	Err string
}

func (r *rejoinResp) Fields(f *wire.Fields) { f.String(&r.Err) }

// lookupReq resolves a member's current address and status.
type lookupReq struct {
	ID wire.BPID
}

func (r *lookupReq) Fields(f *wire.Fields) { f.BPID(&r.ID) }

// lookupResp answers a lookup. Online reflects the server's best
// knowledge — members are not obliged to announce disconnects, so the
// validator refreshes this periodically.
type lookupResp struct {
	Err    string
	Found  bool
	Addr   string
	Online bool
}

func (r *lookupResp) Fields(f *wire.Fields) {
	f.String(&r.Err)
	f.Bool(&r.Found)
	f.String(&r.Addr)
	f.Bool(&r.Online)
}

// deregisterReq announces a member's graceful leave: mark it offline
// immediately instead of waiting for the next probe sweep to notice. The
// BPID stays valid — a deregistered member can Rejoin later.
type deregisterReq struct {
	ID wire.BPID
}

func (r *deregisterReq) Fields(f *wire.Fields) { f.BPID(&r.ID) }

// deregisterResp acknowledges a deregistration.
type deregisterResp struct {
	Err string
}

func (r *deregisterResp) Fields(f *wire.Fields) { f.String(&r.Err) }

// peersReq asks the server for a fresh list of online members, excluding
// the requester — how a node replenishes its peer set after drops.
type peersReq struct {
	Self wire.BPID // zero if the requester is not a member of this server
	Max  int
}

func (r *peersReq) Fields(f *wire.Fields) {
	f.BPID(&r.Self)
	f.Int(&r.Max)
}

// peersResp carries the peer list.
type peersResp struct {
	Err   string
	Peers []PeerInfo
}

func (r *peersResp) Fields(f *wire.Fields) {
	f.String(&r.Err)
	wire.List(f, &r.Peers, wire.MaxFrameSize, peerInfoFields)
}
