// Package chord implements a Chord-style distributed hash table (Stoica
// et al., SIGCOMM 2001) over the BestPeer wire protocol: SHA-1
// consistent hashing, finger tables, successor lists, and the
// stabilize/notify/fix-fingers/check-predecessor maintenance loops.
//
// The package is split in two layers. Table is the pure routing state —
// predecessor, successor list, fingers, and the next-hop decision — with
// no locks or I/O, so the simulator can drive thousands of tables
// directly. Node wraps a Table with the live protocol: dial-per-call
// RPCs over a transport.Network, periodic maintenance, and journal
// events. A Node does not own a listener; its host (the ring-mode LIGLO
// server, or a test harness) accepts connections and hands chord-kind
// envelopes to HandleEnvelope.
package chord

import (
	"crypto/sha1"
	"encoding/binary"
)

// Bits is the width of the identifier circle: keys are the first 64 bits
// of a SHA-1 digest, so the ring has 2^64 positions and a finger table
// has at most 64 entries.
const Bits = 64

// Key is a position on the identifier circle. Arithmetic wraps modulo
// 2^64, which is exactly uint64 overflow.
type Key uint64

// hashBytes maps arbitrary bytes onto the identifier circle.
func hashBytes(b []byte) Key {
	sum := sha1.Sum(b)
	return Key(binary.BigEndian.Uint64(sum[:8]))
}

// HashString maps a string (a transport address, a keyword, a BPID's
// string form) onto the identifier circle.
func HashString(s string) Key { return hashBytes([]byte(s)) }

// Between reports whether x lies strictly inside the clockwise interval
// (a, b) on the circle. When a == b the interval is the whole circle
// minus a itself.
func Between(a, x, b Key) bool {
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// BetweenRightIncl reports whether x lies in the clockwise interval
// (a, b] — the ownership rule: node b owns every key in (pred, b].
func BetweenRightIncl(a, x, b Key) bool {
	return x == b || Between(a, x, b)
}

// fingerStart returns the start of finger interval i for a node at k:
// k + 2^i, wrapping around the circle.
func fingerStart(k Key, i int) Key {
	return k + Key(1)<<uint(i)
}

// NodeRef names one ring participant: its key and the transport address
// RPCs reach it at. The zero value means "unset".
type NodeRef struct {
	Key  Key
	Addr string
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// refFor builds the canonical reference for a node address: its ring key
// is the hash of the address itself, so every participant derives the
// same placement without coordination.
func refFor(addr string) NodeRef {
	return NodeRef{Key: HashString(addr), Addr: addr}
}
