package storm

import "slices"

// replacer chooses which buffer frame to evict. Only frames explicitly
// made evictable (pin count zero) are candidates. Implementations are not
// safe for concurrent use; the buffer pool serializes access.
//
// This is the extensibility point StorM contributed (Bressan et al.,
// SIGMOD 1999): new replacement policies plug in without touching the
// buffer manager.
type replacer interface {
	// Name identifies the policy, e.g. "lru".
	Name() string
	// Insert makes frame evictable; the pool calls it when the frame's
	// last pin goes, so it is the access a policy orders by. Inserting an
	// already-present frame refreshes it.
	Insert(frame int)
	// Remove withdraws frame from candidacy (it was pinned or freed).
	// Removing an absent frame is a no-op.
	Remove(frame int)
	// Victim selects and removes the frame to evict. ok is false when no
	// frame is evictable.
	Victim() (frame int, ok bool)
	// Len returns the number of evictable frames.
	Len() int
	// reserve sizes the policy's state for frames 0 … n-1. The pool calls
	// it once with its frame count, so Insert, Remove and Victim allocate
	// nothing; Insert grows the state for a larger frame.
	reserve(n int)
}

// listReplacer is the shared machinery for LRU and MRU: a doubly linked
// list of the evictable frames, oldest first, threaded through two slices
// indexed by frame + 1. Index 0 is the list's head: next[0] is the oldest
// frame + 1 and prev[0] the newest. A frame off the list has next -1. The
// two policies differ in which end Victim pops.
type listReplacer struct {
	name         string
	prev, next   []int32
	n            int
	victimNewest bool // MRU evicts the newest
}

func newListReplacer(name string, victimNewest bool) *listReplacer {
	return &listReplacer{name: name, prev: []int32{0}, next: []int32{0}, victimNewest: victimNewest}
}

// newLRU returns a least-recently-used replacer.
func newLRU() replacer { return newListReplacer("lru", false) }

// newMRU returns a most-recently-used replacer, which wins on sequential
// flooding scans (the canonical StorM demonstration workload).
func newMRU() replacer { return newListReplacer("mru", true) }

func (r *listReplacer) Name() string { return r.name }

func (r *listReplacer) reserve(n int) {
	for len(r.next) <= n {
		r.prev, r.next = append(r.prev, 0), append(r.next, -1)
	}
}

func (r *listReplacer) Insert(frame int) {
	r.reserve(frame + 1)
	r.Remove(frame)
	i, last := int32(frame+1), r.prev[0]
	r.prev[i], r.next[i] = last, 0
	r.next[last], r.prev[0] = i, i
	r.n++
}

func (r *listReplacer) Remove(frame int) {
	i := frame + 1
	if i >= len(r.next) || r.next[i] < 0 {
		return
	}
	p, n := r.prev[i], r.next[i]
	r.next[p], r.prev[n] = n, p
	r.next[i] = -1
	r.n--
}

func (r *listReplacer) Victim() (int, bool) {
	i := r.next[0]
	if r.victimNewest {
		i = r.prev[0]
	}
	if i == 0 {
		return 0, false
	}
	r.Remove(int(i - 1))
	return int(i - 1), true
}

func (r *listReplacer) Len() int { return r.n }

// clockReplacer approximates LRU with reference bits and a sweeping hand.
// ref and at are indexed by frame; at is the frame's place in the ring,
// -1 off it.
type clockReplacer struct {
	frames []int // ring of frame ids
	ref    []bool
	at     []int32
	hand   int
}

// newClock returns a clock (second-chance) replacer.
func newClock() replacer { return &clockReplacer{} }

func (c *clockReplacer) Name() string { return "clock" }

func (c *clockReplacer) reserve(n int) {
	for len(c.at) < n {
		c.ref, c.at = append(c.ref, false), append(c.at, -1)
	}
	c.frames = slices.Grow(c.frames, max(0, n-len(c.frames)))
}

func (c *clockReplacer) Insert(frame int) {
	c.reserve(frame + 1)
	c.ref[frame] = true
	if c.at[frame] >= 0 {
		return
	}
	c.at[frame] = int32(len(c.frames))
	c.frames = append(c.frames, frame)
}

func (c *clockReplacer) Remove(frame int) {
	if frame >= len(c.at) || c.at[frame] < 0 {
		return
	}
	i, last := c.at[frame], len(c.frames)-1
	c.frames[i] = c.frames[last]
	c.at[c.frames[i]] = i
	c.frames = c.frames[:last]
	c.at[frame], c.ref[frame] = -1, false
	if c.hand > last {
		c.hand = 0
	}
}

func (c *clockReplacer) Victim() (int, bool) {
	if len(c.frames) == 0 {
		return 0, false
	}
	// At most two sweeps: the first clears reference bits.
	for i := 0; i < 2*len(c.frames)+1; i++ {
		if c.hand >= len(c.frames) {
			c.hand = 0
		}
		f := c.frames[c.hand]
		if c.ref[f] {
			c.ref[f] = false
			c.hand++
			continue
		}
		c.Remove(f)
		return f, true
	}
	// Unreachable: a full sweep always clears some bit.
	f := c.frames[0]
	c.Remove(f)
	return f, true
}

func (c *clockReplacer) Len() int { return len(c.frames) }

// newReplacer constructs a replacer by policy name: "lru", "mru" or
// "clock". Unknown names fall back to LRU.
func newReplacer(name string) replacer {
	switch name {
	case "mru":
		return newMRU()
	case "clock":
		return newClock()
	default:
		return newLRU()
	}
}
