// Package observatory implements BestPeer's fleet-level observability:
// a collector that scrapes member admin endpoints (/events, /peers,
// /healthz, /metrics.json), merges the per-node journals into a fleet
// snapshot — overlay topology, cross-node query traces, convergence
// timeline — with ring-overflow loss accounted per member rather than
// silently missing.
package observatory

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// maxEventsPerPage is the page size the collector requests; paging
// continues while pages come back full.
const maxEventsPerPage = 512

// maxScrapePages bounds how many full pages one scrape drains from a
// single member. A member that answers every page full — buggy cursor
// arithmetic, or a journal growing faster than we drain it — must not
// wedge the scrape loop; the remainder is picked up next interval.
const maxScrapePages = 64

// nodeView is one member's contribution to a fleet snapshot.
type nodeView struct {
	// Admin is the member's admin endpoint (host:port) as registered
	// with the collector.
	Admin string `json:"admin"`
	// Node is the member's overlay address, learned from its journal.
	Node string `json:"node,omitempty"`
	// Peers is the member's current direct-peer set, sorted.
	Peers []string `json:"peers"`
	// Health is the member's /healthz payload.
	Health map[string]any `json:"health,omitempty"`
	// Metrics is the member's metric snapshot.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// EventsTotal is the member journal's lifetime event count;
	// EventsMissed is how many of those the collector never saw because
	// the ring evicted them first (accumulated across scrapes).
	EventsTotal  uint64 `json:"events_total"`
	EventsMissed uint64 `json:"events_missed"`
	// EventsEvicted is the member journal's lifetime eviction counter —
	// the raw material for the journal-overflow health signal.
	EventsEvicted uint64 `json:"events_evicted"`
	// Err is the last scrape error for this member, empty when healthy.
	Err string `json:"err,omitempty"`
}

// FleetSnapshot is one merged view of the whole fleet.
type FleetSnapshot struct {
	At    time.Time   `json:"at"`
	Nodes []*nodeView `json:"nodes"`
	// Events is every journal event the collector has accumulated, in
	// collection order (per-member order preserved).
	Events []obs.Event `json:"events"`
	// Missed is the fleet-wide count of events lost to ring overflow
	// before the collector could read them.
	Missed uint64 `json:"missed"`
}

// topology returns the overlay graph: each member's overlay address
// mapped to its sorted direct-peer list. Members whose overlay address
// is unknown (never scraped successfully) are keyed by admin address.
func (s *FleetSnapshot) topology() map[string][]string {
	out := make(map[string][]string, len(s.Nodes))
	for _, n := range s.Nodes {
		key := n.Node
		if key == "" {
			key = n.Admin
		}
		out[key] = append([]string(nil), n.Peers...)
	}
	return out
}

// rounds folds the accumulated fleet events into a convergence timeline.
func (s *FleetSnapshot) rounds() []Round { return Timeline(s.Events) }

// FleetTrace is a query trace assembled across the fleet: the base
// node's span list extended with spans synthesized from other members'
// journals — hops the base never heard about (span reports lost in
// transit) are recovered rather than absent.
type FleetTrace struct {
	ID   string `json:"id"`
	Base string `json:"base,omitempty"`
	// Spans is the merged span list: the base's trace first, then the
	// recovered spans.
	Spans []wire.TraceSpan `json:"spans"`
	// Recovered is how many spans came from member journals only.
	Recovered int `json:"recovered"`
	// Events is every fleet event attributed to the query.
	Events []obs.Event `json:"events"`
}

// Collector scrapes member admin endpoints and accumulates their
// journals. Safe for concurrent use.
type Collector struct {
	client *http.Client
	health *Health

	mu      sync.Mutex
	members []string
	cursors map[string]uint64
	views   map[string]*nodeView
	samples map[string]memberSample
	events  []obs.Event
	missed  uint64
}

// NewCollector creates a collector over the given member admin
// addresses (host:port), with the stock health rule set armed.
func NewCollector(members ...string) *Collector {
	c := &Collector{
		client:  &http.Client{Timeout: 5 * time.Second},
		health:  NewHealth(defaultRules(), 0, 0),
		cursors: make(map[string]uint64),
		views:   make(map[string]*nodeView),
		samples: make(map[string]memberSample),
	}
	for _, m := range members {
		c.addMember(m)
	}
	return c
}

// addMember registers another member admin endpoint.
func (c *Collector) addMember(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m == addr {
			return
		}
	}
	c.members = append(c.members, addr)
}

// memberList returns the registered member admin addresses.
func (c *Collector) memberList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.members...)
}

func (c *Collector) getJSON(addr, path string, v any) error {
	resp, err := c.client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("observatory: GET %s%s: %s", addr, path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// scrapeMember reads one member's journal tail (paging from the saved
// cursor), peer set, health and metrics. It returns the refreshed view;
// journal events and missed counts are appended to the fleet
// accumulators by the caller.
func (c *Collector) scrapeMember(addr string, cursor uint64) (*nodeView, []obs.Event, uint64, uint64) {
	view := &nodeView{Admin: addr, Peers: []string{}}
	var collected []obs.Event
	var missed uint64
	next := cursor
	for pages := 0; pages < maxScrapePages; pages++ {
		var page obs.EventsPage
		if err := c.getJSON(addr, fmt.Sprintf("/events?since=%d&max=%d", next, maxEventsPerPage), &page); err != nil {
			view.Err = err.Error()
			return view, collected, missed, next
		}
		collected = append(collected, page.Events...)
		missed += page.Missed
		next = page.Next
		view.Node = page.Node
		view.EventsTotal = page.Total
		view.EventsEvicted = page.Evicted
		if len(page.Events) < maxEventsPerPage {
			break
		}
	}
	var health map[string]any
	if err := c.getJSON(addr, "/healthz", &health); err == nil {
		view.Health = health
	}
	var peers []struct{ Addr string }
	if err := c.getJSON(addr, "/peers", &peers); err == nil {
		addrs := make([]string, 0, len(peers))
		for _, p := range peers {
			addrs = append(addrs, p.Addr)
		}
		sort.Strings(addrs)
		view.Peers = addrs
	}
	var snap obs.Snapshot
	if err := c.getJSON(addr, "/metrics.json", &snap); err == nil {
		view.Metrics = &snap
	}
	return view, collected, missed, next
}

// Scrape polls every member once and returns the merged fleet snapshot.
// Event cursors persist across scrapes, so each call reads only new
// events; ring overflow between scrapes lands in Missed, never silently.
// Unreachable members keep their last view with Err set.
func (c *Collector) Scrape() *FleetSnapshot {
	for _, addr := range c.memberList() {
		c.ScrapeOne(addr)
	}
	return c.Snapshot()
}

// ScrapeOne polls a single member, merges its view into the fleet
// state, and feeds the scrape through the health engine — derived
// signals keyed by the member's admin address, which is stable even
// while the overlay address is still unknown. The jittered bpobs loop
// calls this per member so a large fleet is not scraped as one herd.
func (c *Collector) ScrapeOne(addr string) {
	c.mu.Lock()
	cursor := c.cursors[addr]
	prev := c.views[addr]
	prevSample := c.samples[addr]
	c.mu.Unlock()

	view, events, missed, next := c.scrapeMember(addr, cursor)
	up := view.Err == ""

	cur := memberSample{
		At: time.Now(), Up: up,
		Metrics: view.Metrics,
		Events:  events,
		Evicted: view.EventsEvicted,
	}
	exemplar := ""
	if cur.Metrics != nil {
		exemplar = cur.Metrics.TailExemplar("bestpeer_node_agent_exec_seconds")
		if exemplar == "" {
			exemplar = cur.Metrics.TailExemplar("bestpeer_node_answer_hops")
		}
	}
	c.health.Ingest(addr, cur.At, deriveSignals(prevSample, cur), exemplar)

	c.mu.Lock()
	if view.Err != "" && prev != nil {
		// Keep the last good view but surface the scrape error and
		// the loss already accumulated.
		prev.Err = view.Err
		view = prev
	}
	if prev != nil {
		view.EventsMissed = prev.EventsMissed
	}
	view.EventsMissed += missed
	c.views[addr] = view
	c.cursors[addr] = next
	c.events = append(c.events, events...)
	c.missed += missed
	if up {
		// A failed scrape keeps the previous sample so the recovery
		// window deltas from the last good metrics, not from nothing.
		c.samples[addr] = cur
	}
	c.mu.Unlock()
}

// Snapshot assembles the current fleet view from accumulated state
// without touching the network.
func (c *Collector) Snapshot() *FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &FleetSnapshot{
		At:     time.Now(),
		Events: append([]obs.Event(nil), c.events...),
		Missed: c.missed,
	}
	for _, addr := range c.members {
		if v, ok := c.views[addr]; ok {
			snap.Nodes = append(snap.Nodes, v)
		} else {
			snap.Nodes = append(snap.Nodes, &nodeView{Admin: addr, Peers: []string{}, Err: "not scraped yet"})
		}
	}
	return snap
}

// assembleTrace builds the cross-node trace for a query from the
// accumulated fleet events plus the base node's own trace (fetched from
// its admin endpoint when the base is known). Spans recorded by the base
// win; spans seen only in member journals are appended and counted as
// recovered.
func (c *Collector) assembleTrace(id string) *FleetTrace {
	c.mu.Lock()
	var events []obs.Event
	base, baseAdmin := "", ""
	for _, e := range c.events {
		if e.Query != id {
			continue
		}
		events = append(events, e)
		if e.Kind == obs.EvQueryIssued {
			base = e.Node
		}
	}
	if base != "" {
		for admin, v := range c.views {
			if v.Node == base {
				baseAdmin = admin
				break
			}
		}
	}
	c.mu.Unlock()

	ft := &FleetTrace{ID: id, Base: base, Events: events}
	type key struct {
		peer string
		hop  int
	}
	have := make(map[key]bool)
	if baseAdmin != "" {
		var payload struct {
			Trace obs.QueryTrace `json:"trace"`
		}
		if err := c.getJSON(baseAdmin, "/queries/"+id, &payload); err == nil {
			ft.Spans = append(ft.Spans, payload.Trace.Spans...)
			for _, s := range payload.Trace.Spans {
				have[key{s.Peer, s.Hop}] = true
			}
		}
	}
	// Synthesize spans the base never received from member journals:
	// forwarded and dropped events carry (node, previous hop, distance).
	for _, e := range events {
		var span wire.TraceSpan
		switch e.Kind {
		case obs.EvAgentForwarded:
			span = wire.TraceSpan{Peer: e.Node, Parent: e.Peer, Hop: e.Hops, FanOut: e.Count}
		case obs.EvAgentDropped:
			span = wire.TraceSpan{Peer: e.Node, Parent: e.Peer, Hop: e.Hops, Drop: e.Reason}
		default:
			continue
		}
		k := key{span.Peer, span.Hop}
		if have[k] {
			continue
		}
		have[k] = true
		ft.Spans = append(ft.Spans, span)
		ft.Recovered++
	}
	return ft
}
