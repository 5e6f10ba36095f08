package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("same name+labels must return the same handle")
	}

	r.GaugeFunc("test_depth", "a gauge", func() float64 { return 5 })
	if got := r.Snapshot().Value("test_depth"); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestLabelsAreDistinctInstances(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("msgs_total", "messages", L("kind", "agent"))
	b := r.Counter("msgs_total", "messages", L("kind", "result"))
	if a == b {
		t.Fatal("different labels must be different instances")
	}
	a.Add(3)
	b.Inc()
	snap := r.Snapshot()
	f := snap.Family("msgs_total")
	if f == nil || len(f.Metrics) != 2 {
		t.Fatalf("family = %+v, want 2 instances", f)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	h.ObserveDuration(20 * time.Millisecond)
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	snap := r.Snapshot()
	m := snap.Family("lat_seconds").Metrics[0]
	if m.Count != 6 {
		t.Fatalf("snapshot count = %d, want 6", m.Count)
	}
	// Cumulative buckets: ≤0.01: 1, ≤0.1: 4, ≤1: 5, +Inf: 6.
	want := []uint64{1, 4, 5, 6}
	if len(m.Buckets) != 4 {
		t.Fatalf("buckets = %+v, want 4", m.Buckets)
	}
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(m.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", m.Buckets[3].UpperBound)
	}
	if got := m.Sum; math.Abs(got-5.625) > 1e-9 {
		t.Fatalf("sum = %v, want 5.625", got)
	}
}

func TestGaugeFuncAndValueHelper(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("pool_objects", "objects", func() float64 { return v })
	if got := r.Snapshot().Value("pool_objects"); got != 3 {
		t.Fatalf("gauge func = %v, want 3", got)
	}
	// Re-registration replaces the function.
	r.GaugeFunc("pool_objects", "objects", func() float64 { return 9 })
	if got := r.Snapshot().Value("pool_objects"); got != 9 {
		t.Fatalf("after rebind = %v, want 9", got)
	}
	if got := r.Snapshot().Value("missing"); got != 0 {
		t.Fatalf("missing family = %v, want 0", got)
	}
}

// TestCounterFuncDeltas: a count that lives elsewhere is exposed as a
// counter — typed so in the exposition, turned into an increase by
// DeltaSince, re-bindable — where GaugeFunc would hand a scraper the
// running total as a level.
func TestCounterFuncDeltas(t *testing.T) {
	r := NewRegistry()
	reads, level := 10.0, 10.0
	r.CounterFunc("pool_reads_total", "reads", func() float64 { return reads })
	r.GaugeFunc("pool_level", "level", func() float64 { return level })
	before := r.Snapshot()
	reads, level = 25, 25
	delta := r.Snapshot().DeltaSince(before)
	if got := delta.Value("pool_reads_total"); got != 15 {
		t.Fatalf("counter func delta = %v, want 15", got)
	}
	if got := delta.Value("pool_level"); got != 25 {
		t.Fatalf("gauge func delta = %v, want the level 25", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "# TYPE pool_reads_total counter\npool_reads_total 25\n") {
		t.Fatalf("exposition:\n%s", out)
	}
	r.CounterFunc("pool_reads_total", "reads", func() float64 { return 3 }) // a restarted component re-binds
	if got := r.Snapshot().DeltaSince(before).Value("pool_reads_total"); got != 3 {
		t.Fatalf("a count that went backwards deltas from zero: got %v, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter func as a gauge must panic")
		}
	}()
	r.GaugeFunc("pool_reads_total", "reads", func() float64 { return 0 })
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram must panic")
		}
	}()
	r.Histogram("x_total", "x", LatencyBuckets)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_msgs_total", "messages handled", L("kind", "agent")).Add(12)
	r.GaugeFunc("app_queue_depth", "queue depth", func() float64 { return 3 })
	h := r.Histogram("app_lat_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_msgs_total messages handled\n",
		"# TYPE app_msgs_total counter\n",
		`app_msgs_total{kind="agent"} 12` + "\n",
		"# TYPE app_queue_depth gauge\n",
		"app_queue_depth 3\n",
		"# TYPE app_lat_seconds histogram\n",
		`app_lat_seconds_bucket{le="0.5"} 1` + "\n",
		`app_lat_seconds_bucket{le="1"} 1` + "\n",
		`app_lat_seconds_bucket{le="+Inf"} 2` + "\n",
		"app_lat_seconds_sum 2.25\n",
		"app_lat_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "esc", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "j").Add(2)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"j_total"`) {
		t.Fatalf("json missing family:\n%s", b.String())
	}
}

func TestWriteJSONHistogramRoundTrips(t *testing.T) {
	// The +Inf bucket has no JSON number encoding; it must travel as the
	// Prometheus-style string and parse back to an infinity.
	r := NewRegistry()
	r.Histogram("jh_seconds", "jh", []float64{0.5, 1}).Observe(2)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"le": "+Inf"`) {
		t.Fatalf("json missing +Inf bucket:\n%s", b.String())
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	buckets := back.Family("jh_seconds").Metrics[0].Buckets
	if len(buckets) != 3 || !math.IsInf(buckets[2].UpperBound, 1) {
		t.Fatalf("buckets did not round-trip: %+v", buckets)
	}
	if buckets[0].UpperBound != 0.5 || buckets[2].Count != 1 {
		t.Fatalf("bucket values did not round-trip: %+v", buckets)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "concurrent")
			h := r.Histogram("conc_seconds", "concurrent", LatencyBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Value("conc_total"); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_seconds", "exemplar test", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "fast-1")
	h.ObserveExemplar(0.06, "fast-2") // replaces fast-1 in the same bucket
	h.ObserveExemplar(5, "slow-1")    // lands in +Inf
	h.ObserveExemplar(0.5, "")        // empty id: observe only
	snap := r.Snapshot()
	buckets := snap.Family("ex_seconds").Metrics[0].Buckets
	if buckets[0].Exemplar != "fast-2" {
		t.Fatalf("bucket 0 exemplar = %q, want fast-2", buckets[0].Exemplar)
	}
	if buckets[1].Exemplar != "" {
		t.Fatalf("bucket 1 exemplar = %q, want empty (observed with no id)", buckets[1].Exemplar)
	}
	if buckets[2].Exemplar != "slow-1" {
		t.Fatalf("+Inf exemplar = %q, want slow-1", buckets[2].Exemplar)
	}
	// The tail exemplar is the slowest recent observation's ID.
	if got := snap.TailExemplar("ex_seconds"); got != "slow-1" {
		t.Fatalf("TailExemplar = %q, want slow-1", got)
	}
	if got := snap.TailExemplar("missing"); got != "" {
		t.Fatalf("TailExemplar(missing) = %q", got)
	}
	// Exemplars survive the JSON round trip.
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if got := back.TailExemplar("ex_seconds"); got != "slow-1" {
		t.Fatalf("round-tripped TailExemplar = %q, want slow-1", got)
	}
}

func TestSnapshotDeltaSince(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_total", "delta counter")
	depth := 4.0
	r.GaugeFunc("d_depth", "delta gauge", func() float64 { return depth })
	h := r.Histogram("d_seconds", "delta histogram", []float64{1})
	lc := r.Counter("d_labeled_total", "labeled", L("where", "base"))
	c.Add(10)
	h.Observe(0.5)
	lc.Add(3)
	prev := r.Snapshot()
	c.Add(5)
	depth = 9
	h.ObserveExemplar(2, "tail-q")
	lc.Add(2)
	r.Counter("d_labeled_total", "labeled", L("where", "serve")).Add(7)
	cur := r.Snapshot()

	d := cur.DeltaSince(prev)
	if got := d.Value("d_total"); got != 5 {
		t.Fatalf("counter delta = %v, want 5", got)
	}
	// Gauges pass through as levels, not deltas.
	if got := d.Value("d_depth"); got != 9 {
		t.Fatalf("gauge level = %v, want 9", got)
	}
	// New labeled instance deltas from zero; Total sums across labels.
	if got := d.Total("d_labeled_total"); got != 9 {
		t.Fatalf("labeled delta total = %v, want 2+7", got)
	}
	hm := d.Family("d_seconds").Metrics[0]
	if hm.Count != 1 || hm.Sum != 2 {
		t.Fatalf("histogram delta count=%d sum=%v, want 1/2", hm.Count, hm.Sum)
	}
	if hm.Buckets[0].Count != 0 || hm.Buckets[1].Count != 1 {
		t.Fatalf("histogram bucket deltas = %+v", hm.Buckets)
	}
	// Exemplars ride through from the current snapshot.
	if got := d.TailExemplar("d_seconds"); got != "tail-q" {
		t.Fatalf("delta exemplar = %q, want tail-q", got)
	}
	// A nil prev (first scrape) deltas everything from zero.
	if got := cur.DeltaSince(nil).Value("d_total"); got != 15 {
		t.Fatalf("delta from nil = %v, want 15", got)
	}
	// A counter that went backwards (restart) deltas from zero too.
	r2 := NewRegistry()
	r2.Counter("d_total", "delta counter").Add(2)
	if got := r2.Snapshot().DeltaSince(prev).Value("d_total"); got != 2 {
		t.Fatalf("restart delta = %v, want 2", got)
	}
}
