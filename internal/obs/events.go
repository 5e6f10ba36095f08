package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// EventKind names one structured journal event. Its name is unexported,
// so the Ev… values below are the only kinds code outside this package
// can build: the vocabulary is closed by the type, and a misspelled kind
// does not compile. On the wire a kind is its plain name; decoding keeps
// a name this build does not declare, so a newer member's events pass
// through the observatory unchanged.
type EventKind struct{ name string }

// String returns the kind's wire name.
func (k EventKind) String() string { return k.name }

// MarshalText encodes the kind as its name.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.name), nil }

// UnmarshalText decodes a kind from its name, declared here or not.
func (k *EventKind) UnmarshalText(text []byte) error {
	k.name = string(text)
	return nil
}

// The event vocabulary. Node-side kinds are emitted by internal/core,
// peer-liveness kinds by internal/transport, member kinds by the LIGLO
// server.
var (
	// EvJoined: the node registered with a LIGLO server and adopted a
	// BPID; Count is the number of initial peers received.
	EvJoined = EventKind{"joined"}
	// EvPeerAdded: a peer entered the direct-peer set. Reason names the
	// edit ("join", "reconfig", "topology", "added", "repair",
	// "depart-hint", "offline" for the new address of a peer Rejoin
	// found moved); reconfig additions also carry Query and Strategy.
	EvPeerAdded = EventKind{"peer-added"}
	// EvPeerDropped: a peer left the direct-peer set ("suspect" from a
	// repair round, "depart", "leave", "offline" from Rejoin, "topology"
	// from SetPeers, "join" for what a Join replaced).
	EvPeerDropped = EventKind{"peer-dropped"}
	// EvReconfigured: the post-query strategy decision, with the full
	// per-candidate rationale in Scores (rank and k-cut selection).
	// Count is how many peers the decision added.
	EvReconfigured = EventKind{"reconfigured"}
	// EvQueryIssued: this node became the base of a query; Count is the
	// fan-out, Hops the TTL, Strategy the reconfiguration policy.
	EvQueryIssued = EventKind{"query-issued"}
	// EvQueryCompleted: the collection window closed; Count is the total
	// answers plus hints gathered.
	EvQueryCompleted = EventKind{"query-completed"}
	// EvAgentForwarded: an arriving agent was clone-forwarded; Count is
	// the fan-out, Peer the previous hop.
	EvAgentForwarded = EventKind{"agent-forwarded"}
	// EvAgentAnswered: an answer batch reached this base; Peer is the
	// answering node, Hops its distance, Count the batch size.
	EvAgentAnswered = EventKind{"agent-answered"}
	// EvAgentDropped: an arriving agent was discarded without execution
	// (Reason: expired, duplicate, decode, no-class).
	EvAgentDropped = EventKind{"agent-dropped"}
	// EvPeerSuspect: the transport crossed its consecutive-failure
	// threshold for Peer and armed the suspect backoff.
	EvPeerSuspect = EventKind{"peer-suspect"}
	// EvPeerRecovered: a delivery to a previously suspect Peer succeeded.
	EvPeerRecovered = EventKind{"peer-recovered"}
	// EvMessageDropped: the transport abandoned an outgoing envelope
	// (Reason: queue-full, suspect, encode, deliver).
	EvMessageDropped = EventKind{"message-dropped"}
	// EvMemberRegistered: a LIGLO server issued a BPID to Peer.
	EvMemberRegistered = EventKind{"member-registered"}
	// EvMemberOnline: a LIGLO member transitioned to online (Reason:
	// probe, rejoin).
	EvMemberOnline = EventKind{"member-online"}
	// EvMemberOffline: a LIGLO liveness sweep found a member unreachable.
	EvMemberOffline = EventKind{"member-offline"}
	// EvCacheHit: the qroute answer cache served a query without work
	// (Reason: "base" for a whole-query hit with zero fan-out, "serve"
	// for a peer skipping its store scan, "negative" for a cached
	// no-match); Count is the answers served.
	EvCacheHit = EventKind{"cache-hit"}
	// EvCacheMiss: a fingerprintable query missed the base answer cache
	// and fell through to the normal fan-out path.
	EvCacheMiss = EventKind{"cache-miss"}
	// EvCacheInvalidated: a store mutation bumped the cache epoch; Count
	// is how many cached entries that made unservable.
	EvCacheInvalidated = EventKind{"cache-invalidated"}
	// EvSelectiveRoute: the learned routing index pruned a fan-out;
	// Count is the targets chosen, K the candidate neighbors, Hops the
	// scoped TTL sent with the clones.
	EvSelectiveRoute = EventKind{"selective-route"}
	// EvLeft: this node executed a graceful leave — Depart sent to every
	// direct peer and the home LIGLO notified; Count is how many peers
	// were told, Reason "deregistered" when the LIGLO accepted the
	// deregister and "deregister-failed" when it could not be reached.
	EvLeft = EventKind{"left"}
	// EvDepartReceived: a direct peer announced its departure; Count is
	// how many replacement-neighbor hints the announcement carried. The
	// edge drop itself is journalled as EvPeerDropped reason "depart".
	EvDepartReceived = EventKind{"depart-received"}
	// EvRepair: one crash-repair round ran. Reason is the trigger
	// ("suspect", "sweep", "depart", "periodic"), Count the peers added,
	// K the degree deficit the round started with.
	EvRepair = EventKind{"repair"}
	// EvMemberDeregistered: a LIGLO member announced a graceful leave and
	// was marked offline immediately, without waiting for a probe sweep.
	EvMemberDeregistered = EventKind{"member-deregistered"}
	// EvAlertRaised: a fleet health rule crossed its firing threshold and
	// held past its minimum-hold duration. Node is the member, Reason the
	// rule name, Strategy the derived series, Value/Threshold the breach,
	// Query the exemplar trace ID when one was available.
	EvAlertRaised = EventKind{"alert-raised"}
	// EvAlertCleared: a firing health rule stayed on the clear side of
	// its hysteresis band long enough to clear. Same provenance fields as
	// EvAlertRaised.
	EvAlertCleared = EventKind{"alert-cleared"}
	// EvRingJoined: a chord node entered a ring — Peer is the successor
	// it attached to ("" when it created a fresh ring).
	EvRingJoined = EventKind{"ring-joined"}
	// EvRingLeft: a chord node left its ring (Reason: "leave" for a
	// graceful departure, "close" for a plain shutdown).
	EvRingLeft = EventKind{"ring-left"}
	// EvRingNeighborChanged: stabilization moved a ring neighbor; Reason
	// is which slot ("successor", "predecessor"), Peer the new occupant
	// ("" when the slot was vacated).
	EvRingNeighborChanged = EventKind{"ring-neighbor-changed"}
	// EvRingRedirected: a ring-mode LIGLO server answered a request for a
	// key it does not own with the owner's address; Peer is the owner,
	// Reason the operation ("lookup", "rejoin", "deregister").
	EvRingRedirected = EventKind{"ring-redirected"}
	// EvRingReplicated: a ring-mode LIGLO server shipped member records
	// to a successor; Peer is the target, Count how many records.
	EvRingReplicated = EventKind{"ring-replicated"}
)

// PeerScore is one candidate's line in a reconfiguration decision: the
// observation the strategy scored and where the candidate landed.
type PeerScore struct {
	Addr     string `json:"addr"`
	Answers  int    `json:"answers"`
	Bytes    int    `json:"bytes,omitempty"`
	Hops     int    `json:"hops,omitempty"`
	Rank     int    `json:"rank,omitempty"` // 1-based; 0 when the strategy never ranked it
	Selected bool   `json:"selected,omitempty"`
}

// Event is one journal entry. Only Seq, At and Kind are always present;
// the rest is kind-specific (see the kind constants). Query is the
// query's MsgID in hex — a string so simulated nodes can journal too.
type Event struct {
	Seq      uint64      `json:"seq"`
	At       time.Time   `json:"at"`
	Kind     EventKind   `json:"kind"`
	Node     string      `json:"node,omitempty"`
	Query    string      `json:"query,omitempty"`
	Peer     string      `json:"peer,omitempty"`
	Reason   string      `json:"reason,omitempty"`
	Strategy string      `json:"strategy,omitempty"`
	Hops     int         `json:"hops,omitempty"`
	Count    int         `json:"count,omitempty"`
	K        int         `json:"k,omitempty"`
	Scores   []PeerScore `json:"scores,omitempty"`
	// Value and Threshold carry the observed signal level and the rule
	// bound for alert events.
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// defaultJournalCapacity is the ring size when NewJournal gets zero.
const defaultJournalCapacity = 1024

// Journal is a fixed-capacity ring buffer of events with a monotonically
// increasing sequence cursor. When the ring wraps, the oldest events are
// evicted but remain accounted: Since reports exactly how many a reader
// missed, so overflow is visible rather than silent. All methods are
// safe for concurrent use and safe on a nil receiver (appends become
// no-ops), so emitting code never needs a nil check.
type Journal struct {
	mu   sync.Mutex
	node string
	buf  []Event
	n    int    // events currently retained (≤ len(buf))
	seq  uint64 // next sequence number == events ever appended
	log  *slog.Logger
}

// NewJournal creates a journal whose events are stamped with the node
// name. capacity ≤ 0 selects defaultJournalCapacity.
func NewJournal(node string, capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCapacity
	}
	return &Journal{node: node, buf: make([]Event, capacity)}
}

// SetNode sets the name stamped on subsequent events — used when the
// journal must exist before the node's listen address is bound.
func (j *Journal) SetNode(node string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.node = node
	j.mu.Unlock()
}

// Node returns the name stamped on this journal's events.
func (j *Journal) Node() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node
}

// SetLogger mirrors every appended event to l at debug level. Nil stops
// mirroring.
func (j *Journal) SetLogger(l *slog.Logger) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.log = l
	j.mu.Unlock()
}

// Append stamps e with the next sequence number, the journal's node name
// (unless the event carries its own) and the current time (unless
// already set), then stores it, evicting the oldest event when full.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	e.Seq = j.seq
	if e.Node == "" {
		e.Node = j.node
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	j.buf[int(j.seq%uint64(len(j.buf)))] = e
	j.seq++
	if j.n < len(j.buf) {
		j.n++
	}
	log := j.log
	j.mu.Unlock()
	if log != nil && log.Enabled(context.Background(), slog.LevelDebug) {
		log.Debug("event", "kind", e.Kind.String(), "seq", e.Seq,
			"query", e.Query, "peer", e.Peer, "reason", e.Reason, "count", e.Count)
	}
}

// Total returns how many events were ever appended. The next event gets
// sequence number Total().
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Evicted returns how many events have been overwritten by ring wrap.
func (j *Journal) Evicted() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(j.n)
}

// Since returns events with sequence ≥ cursor, at most max of them
// (max ≤ 0 means all retained). next is the cursor to resume from —
// pass it back to read only newer events. missed is how many events
// between cursor and the oldest retained one were evicted before this
// read: a non-zero missed means the reader fell behind the ring and the
// gap is accounted, not silently skipped.
func (j *Journal) Since(cursor uint64, max int) (events []Event, next uint64, missed uint64) {
	if j == nil {
		return nil, cursor, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	oldest := j.seq - uint64(j.n)
	if cursor > j.seq {
		cursor = j.seq
	}
	if cursor < oldest {
		missed = oldest - cursor
		cursor = oldest
	}
	count := j.seq - cursor
	if max > 0 && count > uint64(max) {
		count = uint64(max)
	}
	events = make([]Event, 0, count)
	for s := cursor; s < cursor+count; s++ {
		events = append(events, j.buf[int(s%uint64(len(j.buf)))])
	}
	return events, cursor + count, missed
}

// EventsPage is the /events wire payload: one Since read plus the
// journal's lifetime accounting, shared between the admin endpoint and
// the observatory client so both ends agree on the schema.
type EventsPage struct {
	Node   string  `json:"node,omitempty"`
	Events []Event `json:"events"`
	// Next is the cursor for the following read (pass as ?since=).
	Next uint64 `json:"next"`
	// Missed is how many events between the request cursor and the
	// oldest retained event were evicted before this read.
	Missed uint64 `json:"missed"`
	// Total and Evicted are the journal's lifetime counters.
	Total   uint64 `json:"total"`
	Evicted uint64 `json:"evicted"`
}

// Page performs one Since read and wraps it in the wire payload.
func (j *Journal) Page(cursor uint64, max int) EventsPage {
	events, next, missed := j.Since(cursor, max)
	return EventsPage{
		Node:    j.Node(),
		Events:  events,
		Next:    next,
		Missed:  missed,
		Total:   j.Total(),
		Evicted: j.Evicted(),
	}
}
