package wire

import "fmt"

// Kind identifies the protocol-level meaning of an envelope.
type Kind uint8

// Message kinds. The BestPeer, client/server, Gnutella and LIGLO protocols
// share one envelope format so that transports and the simulator can route
// any of them.
const (
	kindInvalid Kind = iota

	// BestPeer protocol.
	KindAgent       // a serialized mobile agent travelling to a peer
	KindResult      // answers returned directly to the base node (mode 1)
	KindHint        // indication that answers exist, without the data (mode 2)
	KindFetch       // follow-up request for data advertised by a hint (mode 2)
	KindClassWant   // destination lacks the agent's class; request it
	KindClassShip   // class payload transfer
	KindPeerProbe   // liveness probe between peers
	KindPeerProbeOK // probe acknowledgement

	// Reserved for the comparators of the paper's evaluation, which exist
	// in the simulator only: these six tag internal/bench's client/server
	// and Gnutella frames, and every later kind's value depends on them.
	KindCSQuery  // plain query shipped to a server
	KindCSAnswer // answers returned along the query path
	kindGnuPing
	kindGnuPong
	KindGnuQuery
	KindGnuQueryHit

	// LIGLO protocol.
	KindLigloRegister  // first-time registration, requests a BPID
	KindLigloRegisterd // registration reply: BPID plus initial peer list
	KindLigloRejoin    // reconnect: report current address
	KindLigloLookup    // resolve a BPID to its current address/status
	KindLigloStatus    // lookup reply
	kindLigloProbe     // server-initiated liveness validation
	KindLigloPeers     // request a fresh peer list
	KindLigloPeersList // peer list reply

	// Observability protocol.
	KindSpan // standalone trace span report sent to the trace base

	// Membership lifecycle (appended after the original vocabulary; the
	// Depart body carries its own version field so the payload can grow
	// without a new kind).
	KindDepart          // graceful leave announcement to direct peers
	KindPeerList        // request a peer's current direct-peer list
	KindPeerListOK      // peer list reply (neighbor-of-neighbor candidates)
	KindLigloDeregister // graceful-leave announcement to the home LIGLO

	// Chord DHT protocol (internal/chord): ring maintenance plus
	// recursive key lookup. Every body leads with a version field, so
	// payloads can grow without new kinds.
	KindChordLookup   // find-successor request, forwarded recursively
	KindChordLookupOK // lookup answer: the key's owning node
	KindChordNotify   // stabilize notify, also the graceful-leave handoff
	KindChordNotifyOK // notify acknowledgement
	KindChordProbe    // finger/neighbor probe: liveness plus topology
	KindChordProbeOK  // probe reply: predecessor and successor list

	// LIGLO ring mode: Chord-partitioned BPID resolution.
	KindRingRedirect    // the server does not own the key; retry at Owner
	KindRingReplicate   // member-record replication to a successor
	KindRingReplicateOK // replication acknowledgement

	kindSentinel // keep last
)

var kindNames = [...]string{
	kindInvalid:         "invalid",
	KindAgent:           "agent",
	KindResult:          "result",
	KindHint:            "hint",
	KindFetch:           "fetch",
	KindClassWant:       "class-want",
	KindClassShip:       "class-ship",
	KindPeerProbe:       "peer-probe",
	KindPeerProbeOK:     "peer-probe-ok",
	KindCSQuery:         "cs-query",
	KindCSAnswer:        "cs-answer",
	kindGnuPing:         "gnu-ping",
	kindGnuPong:         "gnu-pong",
	KindGnuQuery:        "gnu-query",
	KindGnuQueryHit:     "gnu-query-hit",
	KindLigloRegister:   "liglo-register",
	KindLigloRegisterd:  "liglo-registered",
	KindLigloRejoin:     "liglo-rejoin",
	KindLigloLookup:     "liglo-lookup",
	KindLigloStatus:     "liglo-status",
	kindLigloProbe:      "liglo-probe",
	KindLigloPeers:      "liglo-peers",
	KindLigloPeersList:  "liglo-peers-list",
	KindSpan:            "span",
	KindDepart:          "depart",
	KindPeerList:        "peer-list",
	KindPeerListOK:      "peer-list-ok",
	KindLigloDeregister: "liglo-deregister",
	KindChordLookup:     "chord-lookup",
	KindChordLookupOK:   "chord-lookup-ok",
	KindChordNotify:     "chord-notify",
	KindChordNotifyOK:   "chord-notify-ok",
	KindChordProbe:      "chord-probe",
	KindChordProbeOK:    "chord-probe-ok",
	KindRingRedirect:    "ring-redirect",
	KindRingReplicate:   "ring-replicate",
	KindRingReplicateOK: "ring-replicate-ok",
}

// String returns the symbolic name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k names a defined message kind.
func (k Kind) Valid() bool { return k > kindInvalid && k < kindSentinel }

// Envelope frames every message exchanged in the system. TTL and Hops are
// maintained redundantly, exactly as the paper describes: TTL is
// decremented and Hops incremented at each forwarding step, and together
// they let a host drop agents it has already seen or that have expired.
type Envelope struct {
	Kind Kind
	ID   MsgID  // duplicate-suppression identifier
	TTL  uint8  // remaining hops before the message dies
	Hops uint8  // hops travelled so far
	From string // transport address of the immediate sender
	To   string // transport address of the immediate receiver
	// Body is the protocol payload, encoded by the codec helpers. On a
	// decoded envelope it is a view (cap == len, so append reallocates)
	// of the buffer the frame was read or inflated into, which the
	// envelope alone holds — or of the caller's frame, for
	// DecodeEnvelope. It is read-only, and whatever keeps a piece of it
	// keeps the whole frame alive.
	Body []byte

	// Trace, when non-nil, is the per-query trace context this message
	// carries. Span, when non-nil, is a hop record piggybacked for the
	// trace's base node. Both travel as optional codec extensions: an
	// envelope without them is encoded byte-identically to the original
	// format, and decoders skip extension fields they do not know.
	Trace *TraceContext
	Span  *TraceSpan

	// QRoute, when non-nil, carries routing attribution (which first-hop
	// neighbor this agent travelled through) and cached-answer provenance
	// for the qroute subsystem. Same extension mechanics as Trace/Span.
	QRoute *QRoute
}

// Expired reports whether the envelope's lifetime is exhausted.
func (e *Envelope) Expired() bool { return e.TTL == 0 }

// Forwarded returns a copy of the envelope adjusted for one forwarding
// step: TTL decremented, Hops incremented, From/To rewritten. The body
// and trace context are shared, not copied; forwarding must not mutate
// them.
func (e *Envelope) Forwarded(from, to string) *Envelope {
	cp := *e
	if cp.TTL > 0 {
		cp.TTL--
	}
	cp.Hops++
	cp.From = from
	cp.To = to
	return &cp
}

// WireSize returns the approximate number of bytes the envelope occupies on
// the wire before compression. The simulator uses it to charge bandwidth.
func (e *Envelope) WireSize() int { return e.wireSize(e.extPayloads()) }

// wireSize is the length of what encodeBody lays out, given the encoded
// extension payloads.
func (e *Envelope) wireSize(trace, span, qroute []byte) int {
	n := envelopeHeaderSize + len(e.From) + len(e.To) + len(e.Body)
	if e.Trace != nil {
		n += extHeaderSize + len(trace)
	}
	if e.Span != nil {
		n += extHeaderSize + len(span)
	}
	if e.QRoute != nil {
		n += extHeaderSize + len(qroute)
	}
	return n
}

// extPayloads encodes the payload of each extension the envelope carries
// (nil for an absent one). The calls are concrete so that the visitor
// stays on the stack (see decodeBody).
func (e *Envelope) extPayloads() (trace, span, qroute []byte) {
	if e.Trace != nil {
		var f Fields
		e.Trace.Fields(&f)
		trace = f.enc.buf
	}
	if e.Span != nil {
		var f Fields
		e.Span.Fields(&f)
		span = f.enc.buf
	}
	if e.QRoute != nil {
		var f Fields
		e.QRoute.Fields(&f)
		qroute = f.enc.buf
	}
	return trace, span, qroute
}

// envelopeHeaderSize is the fixed overhead of an encoded envelope: kind,
// ttl, hops, id, and the three length prefixes.
const envelopeHeaderSize = 1 + 1 + 1 + 16 + 4 + 2 + 2
