package netsim

import (
	"fmt"
	"time"

	"bestpeer/internal/wire"
)

// Link describes the directed connectivity between two hosts: propagation
// latency plus a transmission rate. Transfer time for a message of n bytes
// is n/Bandwidth on the sender's uplink and again on the receiver's
// downlink (store-and-forward), plus Latency in between.
type Link struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; <=0 means infinite
}

// TransferTime returns the serialization delay for n bytes at this link's
// bandwidth.
func (l Link) TransferTime(n int) time.Duration {
	if l.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.Bandwidth * float64(time.Second))
}

// HostConfig configures a simulated host.
type HostConfig struct {
	// Threads is the number of CPU workers. A single-threaded
	// client/server node sets 1; multi-threaded hosts set more. Zero
	// defaults to 1.
	Threads int
}

// Handler receives a message delivered to a host.
type Handler func(env *wire.Envelope)

// Host is one machine in the simulated network.
type Host struct {
	net  *Network
	addr string

	cpu      *Resource
	uplink   *Resource
	downlink *Resource
	handler  Handler

	// Stats.
	MsgsSent  uint64
	MsgsRecvd uint64
	BytesSent uint64
	BytesRecv uint64
}

// SetHandler installs the function invoked for each delivered message.
func (h *Host) SetHandler(fn Handler) { h.handler = fn }

// Exec charges d of CPU time on this host's thread pool and then runs fn.
// Work queues FIFO when all threads are busy.
func (h *Host) Exec(d time.Duration, fn func()) { h.cpu.Submit(d, fn) }

// Network owns the hosts and links of a simulation.
type Network struct {
	sim         *Sim
	hosts       map[string]*Host
	defaultLink Link
	links       map[[2]string]Link

	// medium, when set, models a shared segment (a 1990s Ethernet hub):
	// every transfer in the network serializes through this single
	// resource at the default link's bandwidth, instead of per-host
	// uplinks/downlinks. Total bytes on the wire then directly determine
	// completion time — the regime the paper's testbed ran in.
	medium *Resource

	// Global stats. Sent counters increment at the moment of Send (the
	// scheme's traffic cost); delivered counters at handler dispatch.
	MsgsSent       uint64
	BytesSent      uint64
	MsgsDelivered  uint64
	BytesDelivered uint64
}

// UseSharedMedium switches the network to shared-segment transfer
// scheduling. Call before any Send.
func (n *Network) UseSharedMedium() {
	n.medium = NewResource(n.sim, 1)
}

// NewNetwork creates an empty network using sim as its clock. defaultLink
// applies to every host pair without an explicit override.
func NewNetwork(sim *Sim, defaultLink Link) *Network {
	return &Network{
		sim:         sim,
		hosts:       make(map[string]*Host),
		defaultLink: defaultLink,
		links:       make(map[[2]string]Link),
	}
}

// Sim returns the underlying engine.
func (n *Network) Sim() *Sim { return n.sim }

// AddHost creates a host with the given address. Duplicate addresses panic:
// the topology builder controls addresses, so a collision is a bug.
func (n *Network) AddHost(addr string, cfg HostConfig) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host %q", addr))
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	h := &Host{
		net:      n,
		addr:     addr,
		cpu:      NewResource(n.sim, threads),
		uplink:   NewResource(n.sim, 1),
		downlink: NewResource(n.sim, 1),
	}
	n.hosts[addr] = h
	return h
}

// Host returns the host with the given address, or nil.
func (n *Network) Host(addr string) *Host { return n.hosts[addr] }

// SetLink overrides the link used for messages from -> to.
func (n *Network) SetLink(from, to string, l Link) {
	n.links[[2]string{from, to}] = l
}

// linkFor returns the directed link between two hosts.
func (n *Network) linkFor(from, to string) Link {
	if l, ok := n.links[[2]string{from, to}]; ok {
		return l
	}
	return n.defaultLink
}

// Send transmits env from one host to another, charging uplink
// serialization, propagation latency and downlink serialization for size
// bytes. On delivery the destination's handler runs (the handler itself
// decides what CPU work to charge). Sending to an unknown host panics;
// sending from an unknown host panics.
//
// size <= 0 uses env.WireSize().
func (n *Network) Send(from, to string, env *wire.Envelope, size int) {
	src := n.hosts[from]
	dst := n.hosts[to]
	if src == nil {
		panic(fmt.Sprintf("netsim: send from unknown host %q", from))
	}
	if dst == nil {
		panic(fmt.Sprintf("netsim: send to unknown host %q", to))
	}
	if size <= 0 {
		size = env.WireSize()
	}
	link := n.linkFor(from, to)
	xfer := link.TransferTime(size)

	src.MsgsSent++
	src.BytesSent += uint64(size)
	n.MsgsSent++
	n.BytesSent += uint64(size)

	deliver := func() {
		dst.MsgsRecvd++
		dst.BytesRecv += uint64(size)
		n.MsgsDelivered++
		n.BytesDelivered += uint64(size)
		if dst.handler != nil {
			dst.handler(env)
		}
	}

	if n.medium != nil {
		// Shared segment: the whole network contends for one wire.
		n.medium.Submit(xfer, func() {
			n.sim.After(link.Latency, deliver)
		})
		return
	}

	// Uplink: occupy the sender's transmit queue for the serialization time.
	src.uplink.Submit(xfer, func() {
		// Propagation.
		n.sim.After(link.Latency, func() {
			// Downlink: occupy the receiver's queue for the same time.
			dst.downlink.Submit(xfer, deliver)
		})
	})
}
