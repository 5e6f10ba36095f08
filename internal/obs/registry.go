// Package obs is the system's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms with a
// lock-free hot path), a per-query hop tracer, and the admin HTTP
// endpoint that exposes both.
//
// The registry follows the Prometheus data model in miniature: metrics
// belong to named families, a family has one type and help string, and
// instances within a family are distinguished by label pairs. Handles
// returned by Counter/Gauge/Histogram are cached by callers and updated
// with single atomic operations, so instrumenting a hot path costs one
// uncontended atomic add. Exposition (Snapshot, Prometheus text, JSON)
// walks the registry under a lock — scrapes are rare, updates are not.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets. Buckets are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Observe is lock-free: one atomic add on the bucket, one on the
// count, and a CAS loop on the float sum.
//
// Each bucket additionally retains one exemplar — the identifier passed
// to the most recent ObserveExemplar that landed in it — so a scrape of
// a fat-tail bucket links directly to the query or trace that put it
// there. Exemplars attach to their native bucket (the one the
// observation fell into), not the cumulative counts.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1, last is +Inf
	exemplars []atomic.Pointer[string]
	count     atomic.Uint64
	sum       atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and retains exemplar (a query or
// trace identifier) on the bucket the value landed in, replacing that
// bucket's previous exemplar. An empty exemplar observes without
// touching the retained one.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	if exemplar != "" {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&exemplar)
	}
	h.Observe(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationExemplar records a duration in seconds with an
// exemplar identifier retained on the landing bucket.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, exemplar string) {
	h.ObserveExemplar(d.Seconds(), exemplar)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Default bucket layouts.
var (
	// LatencyBuckets suits sub-millisecond to multi-second operations
	// (dial, write, fsync, agent execution), in seconds.
	LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	// HopBuckets counts hops travelled; the paper's TTLs top out well
	// below 16.
	HopBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}
)

type metricType uint8

const (
	counterType metricType = iota
	counterFuncType
	gaugeType
	gaugeFuncType
	histogramType
)

// String is the type as exposition names it: a function-backed metric is
// a counter or a gauge like any other.
func (t metricType) String() string {
	switch t {
	case counterType, counterFuncType:
		return "counter"
	case histogramType:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one labeled instance within a family.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups every instance of one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64
	byKey   map[string]*metric
	order   []string
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey builds the canonical instance key for a label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// getOrCreate returns the family's instance for the label set, creating
// family and instance as needed. Registering a name twice with a
// different type panics: that is a programming error, not a runtime
// condition.
func (r *Registry) getOrCreate(name, help string, typ metricType, buckets []float64, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			byKey: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ.String() != typ.String() {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	key := labelKey(labels)
	m, ok := f.byKey[key]
	if !ok {
		m = &metric{labels: append([]Label(nil), labels...)}
		switch typ {
		case counterType, counterFuncType:
			m.c = &Counter{}
		case gaugeType, gaugeFuncType:
			m.g = &Gauge{}
		case histogramType:
			b := append([]float64(nil), buckets...)
			sort.Float64s(b)
			m.h = &Histogram{bounds: b,
				counts:    make([]atomic.Uint64, len(b)+1),
				exemplars: make([]atomic.Pointer[string], len(b)+1)}
		}
		f.byKey[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the named counter instance, creating it at zero on
// first use. Callers cache the handle; updates are lock-free.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, counterType, nil, labels).c
}

// Gauge returns the named gauge instance.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, gaugeType, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the collector pattern for values that already live elsewhere
// (store statistics, queue lengths). Re-registering the same name+labels
// replaces the function, so a restarted component can re-bind safely.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.bindFunc(r.getOrCreate(name, help, gaugeFuncType, nil, labels), fn)
}

// CounterFunc is GaugeFunc for a count that only grows and already lives
// elsewhere (pool hits, pages read): it is exposed as a counter, so
// Snapshot.DeltaSince turns it into an increase a scraper can rate. fn
// must be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.bindFunc(r.getOrCreate(name, help, counterFuncType, nil, labels), fn)
}

func (r *Registry) bindFunc(m *metric, fn func() float64) {
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram instance with the given bucket
// upper bounds (ignored if the instance already exists).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, histogramType, buckets, labels).h
}

// --- exposition ---

// BucketSnapshot is one cumulative histogram bucket. Exemplar is the
// query/trace ID most recently observed into this bucket natively (not
// cumulatively) — it links a fat-tail bucket to /queries/<id> and the
// observatory's /fleet/trace/<id>.
type BucketSnapshot struct {
	UpperBound float64 `json:"-"`
	Count      uint64  `json:"count"`
	Exemplar   string  `json:"exemplar,omitempty"`
}

// bucketJSON is the wire shape of a bucket: the upper bound travels as a
// string because JSON has no encoding for the +Inf bucket.
type bucketJSON struct {
	LE       string `json:"le"`
	Count    uint64 `json:"count"`
	Exemplar string `json:"exemplar,omitempty"`
}

// MarshalJSON renders the bound Prometheus-style ("+Inf" for the last
// bucket), since encoding/json rejects infinities.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = formatFloat(b.UpperBound)
	}
	return json.Marshal(bucketJSON{LE: le, Count: b.Count, Exemplar: b.Exemplar})
}

// UnmarshalJSON parses what MarshalJSON produces.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var bj bucketJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	b.Count = bj.Count
	b.Exemplar = bj.Exemplar
	if bj.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	_, err := fmt.Sscanf(bj.LE, "%g", &b.UpperBound)
	return err
}

// MetricSnapshot is the frozen state of one labeled instance.
type MetricSnapshot struct {
	Labels  []Label          `json:"labels,omitempty"`
	Value   float64          `json:"value"`
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// FamilySnapshot is the frozen state of one metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Type    string           `json:"type"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Family returns the named family from the snapshot, or nil.
func (s *Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Value returns the value of the family's single unlabeled instance
// (counter or gauge), or 0 when absent.
func (s *Snapshot) Value(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	for _, m := range f.Metrics {
		if len(m.Labels) == 0 {
			return m.Value
		}
	}
	return 0
}

// Total sums the named family's instances across all label sets —
// the fleet-level view of a labeled counter (e.g. cache hits across
// where=base/serve/negative). Histograms contribute their Count.
func (s *Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, m := range f.Metrics {
		if len(m.Buckets) > 0 {
			total += float64(m.Count)
			continue
		}
		total += m.Value
	}
	return total
}

// TailExemplar returns the exemplar retained in the highest non-empty
// bucket of the named histogram family — the trace ID behind the
// slowest recent observation, the natural "what should I look at"
// pointer for a latency alert. Empty when the family is absent, not a
// histogram, or has recorded no exemplars.
func (s *Snapshot) TailExemplar(name string) string {
	f := s.Family(name)
	if f == nil {
		return ""
	}
	for _, m := range f.Metrics {
		for i := len(m.Buckets) - 1; i >= 0; i-- {
			if m.Buckets[i].Exemplar != "" {
				return m.Buckets[i].Exemplar
			}
		}
	}
	return ""
}

// DeltaSince returns a snapshot whose counters and histogram
// counts/sums/buckets hold the increase since prev, so a scraper can
// compute rates without keeping its own per-series bookkeeping. Gauges
// (and gauge funcs) pass through as levels — a delta of a level is
// meaningless. An instance missing from prev, or one whose count went
// backwards (process restart), deltas from zero. Exemplars ride
// through unchanged from the current snapshot: they describe recent
// observations, which is exactly what a delta window covers.
func (s *Snapshot) DeltaSince(prev *Snapshot) *Snapshot {
	out := &Snapshot{Families: make([]FamilySnapshot, 0, len(s.Families))}
	for _, f := range s.Families {
		var pf *FamilySnapshot
		if prev != nil {
			pf = prev.Family(f.Name)
		}
		df := FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type,
			Metrics: make([]MetricSnapshot, 0, len(f.Metrics))}
		for _, m := range f.Metrics {
			var pm *MetricSnapshot
			if pf != nil {
				key := labelKey(m.Labels)
				for i := range pf.Metrics {
					if labelKey(pf.Metrics[i].Labels) == key {
						pm = &pf.Metrics[i]
						break
					}
				}
			}
			dm := m
			dm.Buckets = append([]BucketSnapshot(nil), m.Buckets...)
			switch f.Type {
			case "counter":
				if pm != nil && pm.Value <= m.Value {
					dm.Value = m.Value - pm.Value
				}
			case "histogram":
				if pm != nil && pm.Count <= m.Count {
					dm.Count = m.Count - pm.Count
					dm.Sum = m.Sum - pm.Sum
					if len(pm.Buckets) == len(m.Buckets) {
						for i := range dm.Buckets {
							if pm.Buckets[i].Count <= dm.Buckets[i].Count {
								dm.Buckets[i].Count -= pm.Buckets[i].Count
							}
						}
					}
				}
			}
			df.Metrics = append(df.Metrics, dm)
		}
		out.Families = append(out.Families, df)
	}
	return out
}

// loadExemplar dereferences an atomically stored exemplar, empty when
// none was ever observed.
func loadExemplar(p *atomic.Pointer[string]) string {
	if s := p.Load(); s != nil {
		return *s
	}
	return ""
}

// Snapshot freezes the registry. Families are ordered by name and
// instances by label key, so output is deterministic.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	snap := &Snapshot{}
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ.String()}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			m := f.byKey[key]
			ms := MetricSnapshot{Labels: m.labels}
			switch {
			case m.fn != nil:
				ms.Value = m.fn()
			case m.c != nil:
				ms.Value = float64(m.c.Value())
			case m.g != nil:
				ms.Value = float64(m.g.Value())
			case m.h != nil:
				ms.Count = m.h.Count()
				ms.Sum = m.h.Sum()
				cum := uint64(0)
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					ms.Buckets = append(ms.Buckets, BucketSnapshot{
						UpperBound: bound, Count: cum, Exemplar: loadExemplar(&m.h.exemplars[i])})
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				ms.Buckets = append(ms.Buckets, BucketSnapshot{
					UpperBound: math.Inf(1), Count: cum,
					Exemplar: loadExemplar(&m.h.exemplars[len(m.h.bounds)])})
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if f.Type == "histogram" {
				for _, b := range m.Buckets {
					le := "+Inf"
					if !math.IsInf(b.UpperBound, 1) {
						le = formatFloat(b.UpperBound)
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, renderLabels(m.Labels, L("le", le)), b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, renderLabels(m.Labels), formatFloat(m.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, renderLabels(m.Labels), m.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, renderLabels(m.Labels), formatFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// renderLabels formats a label set (plus any extras) as {k="v",...}, or
// the empty string when there are none.
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat prints metric values the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
