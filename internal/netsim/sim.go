// Package netsim is a deterministic discrete-event network simulator. It
// stands in for the paper's dedicated 32-PC cluster: hosts with a
// configurable number of CPU threads exchange messages over links with
// latency and bandwidth, and all protocol work is charged simulated time.
//
// The simulator is deliberately generic — the BestPeer, client/server and
// Gnutella protocol models in internal/bench are built on top of it — and
// deterministic: two runs with the same inputs produce identical event
// orderings and timings.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled callback. Events are stored by value in the shard
// heaps: at churn-simulation scale (tens of millions of events across
// 10k+ modeled nodes) one pointer allocation per event dominated the
// profile of the earlier pointer-heap design.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

// eventLess is the global event order: time, then scheduling sequence.
// Every pop compares shard heads with it, so the order is identical to a
// single queue's regardless of how events spread across shards.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventShard is one value-typed binary min-heap of events. Sharding
// keeps each heap short (log of a fraction of the total), and the
// hand-rolled sift avoids container/heap's interface boxing on the
// simulator's hottest path.
type eventShard struct {
	heap []event
}

func (h *eventShard) push(e event) {
	h.heap = append(h.heap, e)
	i := len(h.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&h.heap[i], &h.heap[p]) {
			break
		}
		h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
		i = p
	}
}

func (h *eventShard) pop() event {
	root := h.heap[0]
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap[n] = event{} // release the callback for GC
	h.heap = h.heap[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && eventLess(&h.heap[l], &h.heap[m]) {
			m = l
		}
		if r < n && eventLess(&h.heap[r], &h.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.heap[i], h.heap[m] = h.heap[m], h.heap[i]
		i = m
	}
	return root
}

// simShards is the event-queue shard count. Events land on shards round-
// robin by scheduling sequence; a pop scans the (few) shard heads for the
// global minimum, so total order is preserved exactly.
const simShards = 8

// Sim is a discrete-event simulation engine. The zero value is not ready;
// use NewSim or NewSimSeeded.
type Sim struct {
	now     time.Duration
	seq     uint64
	shards  [simShards]eventShard
	pending int
	steps   uint64
	limit   uint64 // safety valve against runaway simulations
	rng     *rand.Rand
}

// NewSim returns an engine positioned at time zero with a fixed default
// random seed.
func NewSim() *Sim { return NewSimSeeded(1) }

// NewSimSeeded returns an engine whose Rand stream is seeded with seed,
// so models that need randomness (churn jitter, workload sampling) stay
// reproducible run to run. A zero seed selects the default.
func NewSimSeeded(seed int64) *Sim {
	if seed == 0 {
		seed = 1
	}
	return &Sim{limit: 200_000_000, rng: rand.New(rand.NewSource(seed))}
}

// Rand returns the simulation's seeded random stream. It must only be
// used from event callbacks (the simulator is single-threaded), and
// models that draw from it in a fixed order are deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute simulated time t. Scheduling in the past
// panics: it would violate causality and indicates a protocol-model bug.
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.shards[s.seq%simShards].push(event{at: t, seq: s.seq, fn: fn})
	s.pending++
}

// After schedules fn d after the current time. Negative delays are
// clamped to zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// peekShard returns the shard holding the globally next event; ok is
// false when no events are queued.
func (s *Sim) peekShard() (int, bool) {
	best := -1
	for i := range s.shards {
		h := s.shards[i].heap
		if len(h) == 0 {
			continue
		}
		if best < 0 || eventLess(&h[0], &s.shards[best].heap[0]) {
			best = i
		}
	}
	return best, best >= 0
}

// Run executes events until the queue drains and returns the final time.
func (s *Sim) Run() time.Duration {
	for s.pending > 0 {
		s.step()
	}
	return s.now
}

func (s *Sim) step() {
	i, ok := s.peekShard()
	if !ok {
		return
	}
	s.stepShard(i)
}

func (s *Sim) stepShard(i int) {
	e := s.shards[i].pop()
	s.pending--
	s.now = e.at
	s.steps++
	if s.steps > s.limit {
		panic("netsim: event limit exceeded; simulation is likely divergent")
	}
	e.fn()
}
