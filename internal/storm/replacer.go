package storm

import "container/list"

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
}

// listReplacer is the shared machinery for LRU and MRU: an ordered list
// of frames plus an index. The two differ in where Victim pops.
type listReplacer struct {
	name         string
	order        *list.List // front = oldest
	pos          map[int]*list.Element
	victimNewest bool // MRU evicts from the back
}

func newListReplacer(name string, victimNewest bool) *listReplacer {
	return &listReplacer{
		name:         name,
		order:        list.New(),
		pos:          make(map[int]*list.Element),
		victimNewest: victimNewest,
	}
}

// newLRU returns a least-recently-used replacer.
func newLRU() replacer { return newListReplacer("lru", false) }

// newMRU returns a most-recently-used replacer, which wins on sequential
// flooding scans (the canonical StorM demonstration workload).
func newMRU() replacer { return newListReplacer("mru", true) }

func (r *listReplacer) Name() string { return r.name }

func (r *listReplacer) Insert(frame int) {
	if e, ok := r.pos[frame]; ok {
		r.order.MoveToBack(e)
		return
	}
	r.pos[frame] = r.order.PushBack(frame)
}

func (r *listReplacer) Remove(frame int) {
	if e, ok := r.pos[frame]; ok {
		r.order.Remove(e)
		delete(r.pos, frame)
	}
}

func (r *listReplacer) Victim() (int, bool) {
	var e *list.Element
	if r.victimNewest {
		e = r.order.Back()
	} else {
		e = r.order.Front()
	}
	if e == nil {
		return 0, false
	}
	f := e.Value.(int)
	r.order.Remove(e)
	delete(r.pos, f)
	return f, true
}

func (r *listReplacer) Len() int { return r.order.Len() }

// clockReplacer approximates LRU with reference bits and a sweeping hand.
type clockReplacer struct {
	frames []int // ring of frame ids
	ref    map[int]bool
	idx    map[int]int // frame -> position in ring
	hand   int
}

// newClock returns a clock (second-chance) replacer.
func newClock() replacer {
	return &clockReplacer{ref: make(map[int]bool), idx: make(map[int]int)}
}

func (c *clockReplacer) Name() string { return "clock" }

func (c *clockReplacer) Insert(frame int) {
	if _, ok := c.idx[frame]; ok {
		c.ref[frame] = true
		return
	}
	c.idx[frame] = len(c.frames)
	c.frames = append(c.frames, frame)
	c.ref[frame] = true
}

func (c *clockReplacer) Remove(frame int) {
	i, ok := c.idx[frame]
	if !ok {
		return
	}
	last := len(c.frames) - 1
	c.frames[i] = c.frames[last]
	c.idx[c.frames[i]] = i
	c.frames = c.frames[:last]
	delete(c.idx, frame)
	delete(c.ref, frame)
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
