// Package wire defines the message formats shared by every protocol in the
// BestPeer system: the envelope that frames all traffic, globally unique
// message identifiers used for duplicate suppression, and the BestPeer
// identity (BPID) issued by LIGLO servers.
//
// The codec writes length-prefixed frames and transparently compresses
// bodies with gzip, mirroring the paper's use of GZIP for all agent and
// control traffic ("compression and un-compression are performed
// automatically by BestPeer platform").
package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// MsgID is a globally unique message identifier, analogous to the GUID
// carried by Gnutella descriptors. Agents and queries carry one so that a
// node can drop duplicates that arrive along multiple paths.
type MsgID [16]byte

// NewMsgID returns a fresh random message identifier.
func NewMsgID() MsgID {
	var id MsgID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// counter so the system stays usable even if it somehow does.
		binary.BigEndian.PutUint64(id[:8], fallbackCounter.Add(1))
	}
	return id
}

var fallbackCounter atomic.Uint64

// String renders the identifier as lowercase hex.
func (id MsgID) String() string { return hex.EncodeToString(id[:]) }

// MarshalJSON renders the ID in its hex string form, so JSON payloads
// (query traces, the admin endpoint) show the same identifier the
// shell and the logs print — not a 16-element byte array.
func (id MsgID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the hex form produced by MarshalJSON.
func (id *MsgID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("wire: bad message id: %w", err)
	}
	parsed, err := ParseMsgID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// ParseMsgID parses the hex form produced by String.
func ParseMsgID(s string) (MsgID, error) {
	var id MsgID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("wire: bad message id: %w", err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("wire: bad message id length %d", len(b))
	}
	copy(id[:], b)
	return id, nil
}

// BPID is a BestPeer global identity: a (LIGLOID, NodeID) pair. LIGLOID is
// the address of the issuing LIGLO server and NodeID is unique only with
// respect to that server, so two different servers may both hand out
// NodeID 7 without conflict (the paper's "unlimited name resources").
type BPID struct {
	LIGLO string // address of the issuing LIGLO server
	Node  uint64 // identifier unique within that server
}

// IsZero reports whether the BPID has not been assigned.
func (b BPID) IsZero() bool { return b.LIGLO == "" && b.Node == 0 }

// String renders the BPID as "liglo/node".
func (b BPID) String() string { return fmt.Sprintf("%s/%d", b.LIGLO, b.Node) }
