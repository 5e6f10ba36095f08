package liglo

import "bestpeer/internal/wire"

// Ring-mode payload versions this build emits. Both bodies lead with a
// version field so they can grow without new kinds: trailing bytes from
// a newer sender are tolerated (wire.Fields.Version; the Depart precedent).
const (
	ringRedirectVersion  = 1
	ringReplicateVersion = 1
)

// maxRingRecords bounds a decoded replication batch.
const maxRingRecords = 1 << 16

// redirectMsg (KindRingRedirect) answers a request for a BPID whose ring
// key this server does not own: retry at Addr, the owning server.
type redirectMsg struct {
	Version uint64
	Addr    string // the owning server
	Key     uint64 // the BPID's ring position, for diagnostics
}

func (m *redirectMsg) Fields(f *wire.Fields) {
	f.Version(&m.Version, ringRedirectVersion)
	f.String(&m.Addr)
	f.Uvarint(&m.Key)
}

// RingRecord is one replicated member entry: the full resolution state a
// successor needs to serve lookups for a BPID when its issuer is gone.
type RingRecord struct {
	ID       wire.BPID
	Addr     string
	Online   bool
	Departed bool
}

// Fields describes a record as it travels inside a replication batch.
func (r *RingRecord) Fields(f *wire.Fields) {
	f.BPID(&r.ID)
	f.String(&r.Addr)
	f.Bool(&r.Online)
	f.Bool(&r.Departed)
}

// replicateMsg (KindRingReplicate) ships member records to a successor —
// the successor-list replication that keeps every BPID resolvable after
// its issuing server leaves or crashes.
type replicateMsg struct {
	Version uint64
	From    string // sending server
	Records []RingRecord
}

func (m *replicateMsg) Fields(f *wire.Fields) {
	f.Version(&m.Version, ringReplicateVersion)
	f.String(&m.From)
	wire.List(f, &m.Records, maxRingRecords, (*RingRecord).Fields)
}

// replicateOK (KindRingReplicateOK) acknowledges a replication batch.
type replicateOK struct {
	Version uint64
	Err     string
}

func (m *replicateOK) Fields(f *wire.Fields) {
	f.Version(&m.Version, ringReplicateVersion)
	f.String(&m.Err)
}
