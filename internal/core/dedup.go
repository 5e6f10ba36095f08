package core

import (
	"sync"

	"bestpeer/internal/wire"
)

// dedup is a bounded set of recently seen message IDs. Agents are cloned
// down every edge, so a node with several peers receives the same agent
// along multiple paths; the redundant TTL/Hops plus this set let it drop
// copies (§3.1). Eviction is FIFO via a ring so memory stays bounded.
type dedup struct {
	mu   sync.Mutex
	set  map[wire.MsgID]struct{}
	ring []wire.MsgID
	next int
}

// newDedup creates a set remembering the last capacity IDs.
func newDedup(capacity int) *dedup {
	if capacity < 1 {
		capacity = 1
	}
	return &dedup{
		set:  make(map[wire.MsgID]struct{}, capacity),
		ring: make([]wire.MsgID, capacity),
	}
}

// Seen records id and reports whether it was already present.
func (d *dedup) Seen(id wire.MsgID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.set[id]; ok {
		return true
	}
	// Evict the slot we are about to occupy.
	if old := d.ring[d.next]; old != (wire.MsgID{}) {
		delete(d.set, old)
	}
	d.ring[d.next] = id
	d.set[id] = struct{}{}
	d.next = (d.next + 1) % len(d.ring)
	return false
}
