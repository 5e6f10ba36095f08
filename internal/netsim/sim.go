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

// event is a scheduled callback. Events are stored by value in the
// heap: at churn-simulation scale (tens of millions of events across
// 10k+ modeled nodes) one pointer allocation per event dominated the
// profile of the earlier pointer-heap design.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

// eventLess is the event order: time, then scheduling sequence. It is
// total, so one run's events always replay in the same order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a value-typed binary min-heap of events. The hand-rolled
// sift avoids container/heap's interface boxing on the simulator's
// hottest path.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	root := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && eventLess(&q[l], &q[m]) {
			m = l
		}
		if r < n && eventLess(&q[r], &q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return root
}

// Sim is a discrete-event simulation engine. The zero value is not ready;
// use NewSim or NewSimSeeded.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	steps  uint64
	limit  uint64 // safety valve against runaway simulations
	rng    *rand.Rand
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
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current time. Negative delays are
// clamped to zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Run executes events until the queue drains and returns the final time.
func (s *Sim) Run() time.Duration {
	for len(s.events) > 0 {
		e := s.events.pop()
		s.now = e.at
		s.steps++
		if s.steps > s.limit {
			panic("netsim: event limit exceeded; simulation is likely divergent")
		}
		e.fn()
	}
	return s.now
}
