// Fleet health engine: scrapes fold into derived per-member signals,
// signals feed fixed-capacity time series, and threshold rules with
// hysteresis plus minimum-hold durations decide when a member is in
// trouble. Firing and clearing become journalled fleet events with
// full provenance — rule, series, threshold, observed value, and the
// exemplar trace ID of the slowest recent query when one is known —
// so an alert links straight to /fleet/trace/<id>.
package observatory

import (
	"sort"
	"sync"
	"time"

	"bestpeer/internal/obs"
)

// Rule is one health threshold over a derived series. A rule fires
// when the signal stays on the breach side of Fire for at least Hold,
// and clears only after the signal stays on the safe side of Clear for
// at least ClearHold. Fire and Clear differ (hysteresis) so a signal
// oscillating around one threshold — exactly what 25% message loss
// produces — cannot flap the alert.
type Rule struct {
	// Name identifies the rule in alerts and journal events.
	Name string `json:"name"`
	// Series is the derived signal the rule watches.
	Series string `json:"series"`
	// Help describes what a firing means and what to look at.
	Help string `json:"help,omitempty"`
	// Below inverts the comparison: the rule breaches when the signal
	// drops below Fire (cache hit collapse, member down) instead of
	// rising above it.
	Below bool `json:"below,omitempty"`
	// Fire is the breach threshold, Clear the recovery threshold. For
	// an above-rule Clear ≤ Fire; for a below-rule Clear ≥ Fire. Equal
	// values disable the hysteresis band but keep the hold times.
	Fire  float64 `json:"fire"`
	Clear float64 `json:"clear"`
	// Hold is how long the breach must persist before the alert fires
	// (zero fires on first breach). ClearHold is the same for clearing.
	Hold      time.Duration `json:"hold"`
	ClearHold time.Duration `json:"clear_hold"`
}

// breached reports whether v is on the firing side of the rule.
func (r Rule) breached(v float64) bool {
	if r.Below {
		return v < r.Fire
	}
	return v > r.Fire
}

// safe reports whether v is on the clearing side of the rule. Between
// Clear and Fire lies the dead band: neither breached nor safe, so a
// pending fire resets but a firing alert does not clear.
func (r Rule) safe(v float64) bool {
	if r.Below {
		return v >= r.Clear
	}
	return v <= r.Clear
}

// Alert is one firing (or just-cleared) rule instance on one member.
type Alert struct {
	Rule   string `json:"rule"`
	Series string `json:"series"`
	Member string `json:"member"`
	Firing bool   `json:"firing"`
	// At is when the state last changed, Since when the underlying
	// breach began (Since ≤ At by at least Hold for a firing alert).
	At    time.Time `json:"at"`
	Since time.Time `json:"since"`
	// Value is the signal level at the transition, Threshold the bound
	// it crossed.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Exemplar is the trace/query ID linked to the breach when the
	// member's latency histograms retained one.
	Exemplar string `json:"exemplar,omitempty"`
}

// ruleState is the per-(member, rule) hysteresis state machine.
type ruleState struct {
	firing       bool
	pendingSince time.Time // zero: no pending transition
	firedSince   time.Time // breach start of the current firing
}

// Health evaluates rules over ingested signals and journals the
// transitions. Safe for concurrent use.
type Health struct {
	mu      sync.Mutex
	rules   []Rule
	ts      *SeriesStore
	journal *obs.Journal
	states  map[string]map[string]*ruleState // member -> rule name -> state
	active  map[string]map[string]*Alert     // member -> rule name -> firing alert
	lastAt  time.Time
}

// NewHealth creates a health engine over the given rules, retaining
// seriesCap points per (member, series) ring and journalCap alert
// events (≤ 0 selects the defaults).
func NewHealth(rules []Rule, seriesCap, journalCap int) *Health {
	return &Health{
		rules:   append([]Rule(nil), rules...),
		ts:      newSeriesStore(seriesCap),
		journal: obs.NewJournal("observatory", journalCap),
		states:  make(map[string]map[string]*ruleState),
		active:  make(map[string]map[string]*Alert),
	}
}

// Series exposes the underlying time-series store.
func (h *Health) Series() *SeriesStore { return h.ts }

// Journal exposes the alert event journal.
func (h *Health) Journal() *obs.Journal { return h.journal }

// Ingest records one scrape's derived signals for a member at time at,
// evaluates every rule whose series was sampled, and returns the
// alerts that transitioned (fired or cleared) during this ingest.
// exemplar, when non-empty, is attached to fired alerts and their
// journal events.
func (h *Health) Ingest(member string, at time.Time, signals map[string]float64, exemplar string) []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, v := range signals {
		h.ts.add(member, name, TSPoint{At: at, V: v})
	}
	if at.After(h.lastAt) {
		h.lastAt = at
	}
	var transitions []Alert
	for _, r := range h.rules {
		v, ok := signals[r.Series]
		if !ok {
			continue // signal not derivable this window (e.g. no cache lookups)
		}
		st := h.state(member, r.Name)
		switch {
		case !st.firing && r.breached(v):
			if st.pendingSince.IsZero() {
				st.pendingSince = at
			}
			if at.Sub(st.pendingSince) >= r.Hold {
				st.firing = true
				st.firedSince = st.pendingSince
				st.pendingSince = time.Time{}
				a := h.transition(r, member, true, at, st.firedSince, v, exemplar)
				transitions = append(transitions, a)
			}
		case !st.firing:
			// Safe or dead band while not firing: a pending fire resets.
			st.pendingSince = time.Time{}
		case st.firing && r.safe(v):
			if st.pendingSince.IsZero() {
				st.pendingSince = at
			}
			if at.Sub(st.pendingSince) >= r.ClearHold {
				st.firing = false
				since := st.firedSince
				st.pendingSince = time.Time{}
				st.firedSince = time.Time{}
				a := h.transition(r, member, false, at, since, v, exemplar)
				transitions = append(transitions, a)
			}
		default:
			// Breached or dead band while firing: a pending clear resets.
			st.pendingSince = time.Time{}
		}
	}
	return transitions
}

// state returns (creating if needed) the member's state for the rule.
// Caller holds h.mu.
func (h *Health) state(member, rule string) *ruleState {
	byRule, ok := h.states[member]
	if !ok {
		byRule = make(map[string]*ruleState)
		h.states[member] = byRule
	}
	st, ok := byRule[rule]
	if !ok {
		st = &ruleState{}
		byRule[rule] = st
	}
	return st
}

// transition records a fire/clear: updates the active set and appends
// the journal event. Caller holds h.mu.
func (h *Health) transition(r Rule, member string, firing bool, at, since time.Time, v float64, exemplar string) Alert {
	a := Alert{
		Rule: r.Name, Series: r.Series, Member: member,
		Firing: firing, At: at, Since: since,
		Value: v, Threshold: r.Fire,
	}
	kind := obs.EvAlertCleared
	if firing {
		kind = obs.EvAlertRaised
		a.Exemplar = exemplar
		byRule, ok := h.active[member]
		if !ok {
			byRule = make(map[string]*Alert)
			h.active[member] = byRule
		}
		cp := a
		byRule[r.Name] = &cp
	} else {
		a.Threshold = r.Clear
		delete(h.active[member], r.Name)
		if len(h.active[member]) == 0 {
			delete(h.active, member)
		}
	}
	h.journal.Append(obs.Event{
		At:        at,
		Kind:      kind,
		Node:      member,
		Reason:    r.Name,
		Strategy:  r.Series,
		Query:     a.Exemplar,
		Value:     v,
		Threshold: a.Threshold,
	})
	return a
}

// activeAlerts returns the currently firing alerts, ordered by member then
// rule name.
func (h *Health) activeAlerts() []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Alert
	for _, byRule := range h.active {
		for _, a := range byRule {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Member != out[j].Member {
			return out[i].Member < out[j].Member
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// memberHealth is one member's line in the fleet health view: the
// latest value of each derived series plus the member's firing alerts.
type memberHealth struct {
	Signals map[string]float64 `json:"signals"`
	Alerts  []Alert            `json:"alerts,omitempty"`
}

// HealthView is the /fleet/health payload.
type HealthView struct {
	At      time.Time               `json:"at"`
	Rules   []Rule                  `json:"rules"`
	Members map[string]memberHealth `json:"members"`
	Active  []Alert                 `json:"active"`
}

// view assembles the fleet-wide health summary.
func (h *Health) view() HealthView {
	active := h.activeAlerts()
	h.mu.Lock()
	view := HealthView{
		At:      h.lastAt,
		Rules:   append([]Rule(nil), h.rules...),
		Members: make(map[string]memberHealth),
		Active:  active,
	}
	h.mu.Unlock()
	for _, member := range h.ts.members() {
		mh := memberHealth{Signals: make(map[string]float64)}
		for _, name := range h.ts.Names(member) {
			if p, ok := h.ts.last(member, name); ok {
				mh.Signals[name] = p.V
			}
		}
		for _, a := range active {
			if a.Member == member {
				mh.Alerts = append(mh.Alerts, a)
			}
		}
		view.Members[member] = mh
	}
	return view
}

// Derived signal names. Each is computed per scrape window by
// deriveSignals from a member's metric deltas, journal events and
// liveness.
const (
	// SigUp is 1 when the member's admin endpoint answered, 0 when not.
	SigUp = "up"
	// sigSendQueueDepth is the transport's summed send-queue depth — a
	// level, not a rate; saturation means deliveries are not draining.
	sigSendQueueDepth = "send_queue_depth"
	// sigSuspectChurnPerS is peer-suspect transitions per second.
	sigSuspectChurnPerS = "suspect_churn_per_s"
	// sigJournalOverflowPerS is journal evictions per second — the rate
	// at which the member is losing observability history.
	sigJournalOverflowPerS = "journal_overflow_per_s"
	// SigCacheHitRate is the qroute answer-cache hit fraction over the
	// window, only emitted when the window saw lookups.
	SigCacheHitRate = "cache_hit_rate"
	// SigRepairAddedPerS is crash-repair peer additions per second — a
	// sustained high rate means repair is not converging.
	SigRepairAddedPerS = "repair_added_per_s"
)

// memberSample is one scrape's raw material for signal derivation.
type memberSample struct {
	At      time.Time
	Up      bool
	Metrics *obs.Snapshot
	// Events are the journal events newly read this scrape; Evicted is
	// the journal's lifetime eviction counter.
	Events  []obs.Event
	Evicted uint64
}

// deriveSignals folds two consecutive samples of one member into the
// derived signal map. Rates use the inter-sample wall-clock window;
// the first sample of a member (prev.At zero) yields levels only,
// because there is no window to rate over.
func deriveSignals(prev, cur memberSample) map[string]float64 {
	signals := make(map[string]float64)
	if cur.Up {
		signals[SigUp] = 1
	} else {
		signals[SigUp] = 0
		return signals
	}
	if cur.Metrics == nil {
		return signals
	}
	signals[sigSendQueueDepth] = cur.Metrics.Total("bestpeer_transport_send_queue_depth")
	window := 0.0
	if !prev.At.IsZero() && cur.At.After(prev.At) {
		window = cur.At.Sub(prev.At).Seconds()
	}
	if window <= 0 {
		return signals
	}
	suspects := 0
	for _, e := range cur.Events {
		if e.Kind == obs.EvPeerSuspect {
			suspects++
		}
	}
	signals[sigSuspectChurnPerS] = float64(suspects) / window
	if cur.Evicted >= prev.Evicted {
		signals[sigJournalOverflowPerS] = float64(cur.Evicted-prev.Evicted) / window
	}
	d := cur.Metrics.DeltaSince(prev.Metrics)
	hits := d.Total("bestpeer_qroute_cache_hits_total")
	misses := d.Total("bestpeer_qroute_cache_misses_total")
	if hits+misses > 0 {
		signals[SigCacheHitRate] = hits / (hits + misses)
	}
	signals[SigRepairAddedPerS] = d.Total("bestpeer_node_repair_peers_added_total") / window
	return signals
}

// defaultRules is the stock rule set for a live fleet scraped every
// few seconds. Thresholds assume interactive scale; benches and tests
// substitute scaled sets via SetRules.
func defaultRules() []Rule {
	return []Rule{
		{
			Name: "member-down", Series: SigUp, Below: true,
			Help: "the member's admin endpoint stopped answering scrapes",
			Fire: 0.5, Clear: 0.5, Hold: 0, ClearHold: 0,
		},
		{
			Name: "suspect-churn", Series: sigSuspectChurnPerS,
			Help: "peers are crossing the suspect threshold faster than steady-state loss explains; look for a partition or a dead neighbor",
			Fire: 0.5, Clear: 0.1, Hold: 2 * time.Second, ClearHold: 5 * time.Second,
		},
		{
			Name: "send-queue-saturation", Series: sigSendQueueDepth,
			Help: "outbound send queues are not draining; deliveries are stalled behind a hung or unreachable destination",
			Fire: 32, Clear: 8, Hold: 2 * time.Second, ClearHold: 5 * time.Second,
		},
		{
			Name: "journal-overflow", Series: sigJournalOverflowPerS,
			Help: "the member is evicting journal events faster than the observatory scrapes them; raise JournalCapacity or the scrape rate",
			Fire: 50, Clear: 10, Hold: 2 * time.Second, ClearHold: 5 * time.Second,
		},
		{
			Name: "cache-hit-collapse", Series: SigCacheHitRate, Below: true,
			Help: "the qroute answer cache stopped absorbing repeat queries; churn or invalidation storms are resetting it",
			Fire: 0.1, Clear: 0.3, Hold: 5 * time.Second, ClearHold: 5 * time.Second,
		},
		{
			Name: "repair-surge", Series: SigRepairAddedPerS,
			Help: "crash repair keeps adding peers round after round instead of converging; the overlay is still losing members",
			Fire: 2, Clear: 0.5, Hold: 2 * time.Second, ClearHold: 5 * time.Second,
		},
	}
}
