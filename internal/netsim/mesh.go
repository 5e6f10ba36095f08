package netsim

import "time"

// MeshMsg is one compact message travelling a Mesh: a few integer words
// whose meaning is defined by the protocol model. Keeping the payload
// value-typed and closure-free is what lets a 10k-node churn simulation
// push tens of millions of messages without allocation pressure.
type MeshMsg struct {
	// From is the sending host index.
	From int32
	// Kind discriminates message types within the model.
	Kind int32
	// A, B, C are model-defined payload words (a query id, a hop count,
	// a candidate host — whatever the model encodes).
	A, B, C int32
}

// meshDelivery is one queued delivery. The ring is ordered by at because
// every send charges the same fixed latency.
type meshDelivery struct {
	at  time.Duration
	to  int32
	msg MeshMsg
}

// MeshStats counts mesh traffic.
type MeshStats struct {
	// Sent is messages submitted; delivered reached a live host; lostDead
	// were addressed to a host that was down at delivery time — exactly
	// how a crash manifests to its neighbors.
	Sent, delivered, lostDead uint64
}

// Mesh is an integer-indexed host fabric for large-scale simulations: n
// hosts, fixed per-hop latency, messages delivered through one shared
// FIFO ring pumped by a single recurring simulator event. Compared with
// modeling each message as its own scheduled closure, the ring costs one
// event per batch of simultaneous deliveries and zero allocations per
// message in the steady state, which is what makes 10k+ node churn runs
// tractable. Hosts can be marked dead (crash) and alive (restart);
// deliveries to dead hosts are counted lost, not queued.
type Mesh struct {
	sim     *Sim
	latency time.Duration
	alive   []bool
	handler func(to int32, m MeshMsg)

	ring []meshDelivery
	head int
	// pumpAt is when the armed pump event fires; armed gates re-arming so
	// any number of in-flight messages share one scheduled event.
	armed  bool
	pumpAt time.Duration

	stats MeshStats
}

// NewMesh builds a fabric of n hosts, all initially alive, with the given
// fixed per-hop latency (zero is allowed: delivery still happens on a
// later event, never reentrantly inside Send).
func NewMesh(sim *Sim, n int, latency time.Duration) *Mesh {
	if latency < 0 {
		latency = 0
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return &Mesh{sim: sim, latency: latency, alive: alive}
}

// SetHandler installs the delivery callback. Must be set before the
// first delivery fires.
func (m *Mesh) SetHandler(fn func(to int32, msg MeshMsg)) { m.handler = fn }

// Alive reports whether host i is up.
func (m *Mesh) Alive(i int32) bool { return m.alive[i] }

// SetAlive marks host i up or down. Messages already in flight toward a
// host that goes down are lost at delivery time.
func (m *Mesh) SetAlive(i int32, up bool) { m.alive[i] = up }

// AliveCount returns how many hosts are currently up.
func (m *Mesh) AliveCount() int {
	n := 0
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
}

// Stats snapshots the mesh counters.
func (m *Mesh) Stats() MeshStats { return m.stats }

// Send queues msg for delivery to host to after the mesh latency. Sends
// from dead hosts are permitted — the model gates those; the mesh models
// only the wire.
func (m *Mesh) Send(to int32, msg MeshMsg) {
	m.stats.Sent++
	at := m.sim.Now() + m.latency
	m.ring = append(m.ring, meshDelivery{at: at, to: to, msg: msg})
	if !m.armed || at < m.pumpAt {
		// First in-flight message (or an earlier one than the armed pump,
		// which cannot happen with fixed latency but costs nothing to
		// guard): arm the pump.
		m.armed = true
		m.pumpAt = m.ring[m.head].at
		m.sim.At(m.pumpAt, m.pump)
	}
}

// pump delivers every message due now, then re-arms for the next batch.
func (m *Mesh) pump() {
	now := m.sim.Now()
	for m.head < len(m.ring) && m.ring[m.head].at <= now {
		d := m.ring[m.head]
		m.ring[m.head] = meshDelivery{}
		m.head++
		if !m.alive[d.to] {
			m.stats.lostDead++
			continue
		}
		m.stats.delivered++
		m.handler(d.to, d.msg)
	}
	if m.head == len(m.ring) {
		// Drained: reset the ring so its capacity is reused.
		m.ring = m.ring[:0]
		m.head = 0
		m.armed = false
		return
	}
	if m.head > len(m.ring)/2 && m.head > 1024 {
		// Compact so the ring's footprint tracks in-flight volume, not
		// lifetime volume.
		n := copy(m.ring, m.ring[m.head:])
		for i := n; i < len(m.ring); i++ {
			m.ring[i] = meshDelivery{}
		}
		m.ring = m.ring[:n]
		m.head = 0
	}
	m.pumpAt = m.ring[m.head].at
	m.sim.At(m.pumpAt, m.pump)
}
