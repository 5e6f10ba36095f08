package observatory

import (
	"sort"
	"sync"
	"time"
)

// TSPoint is one sample of a derived signal.
type TSPoint struct {
	At time.Time `json:"at"`
	V  float64   `json:"v"`
}

// ring is a fixed-capacity time series. When full it does not evict:
// it pairwise-merges adjacent points (mean value, midpoint timestamp),
// halving the resolution so the retained window keeps doubling. A ring
// of capacity 256 scraping every 2s holds ~8.5 minutes at full
// resolution, ~17 at half, and so on — old history degrades gracefully
// instead of vanishing, which is what a convergence-lag rule needs.
// ring is not safe for concurrent use; SeriesStore adds the lock.
type ring struct {
	cap    int
	points []TSPoint
}

// newRing creates a ring holding at most capacity points (minimum 2,
// rounded down to even so pairwise merging is exact).
func newRing(capacity int) *ring {
	if capacity < 2 {
		capacity = 2
	}
	capacity &^= 1
	return &ring{cap: capacity, points: make([]TSPoint, 0, capacity)}
}

// Add appends one sample, downsampling first when the ring is full.
func (r *ring) Add(p TSPoint) {
	if len(r.points) >= r.cap {
		merged := r.points[:0]
		for i := 0; i+1 < len(r.points); i += 2 {
			a, b := r.points[i], r.points[i+1]
			merged = append(merged, TSPoint{
				At: a.At.Add(b.At.Sub(a.At) / 2),
				V:  (a.V + b.V) / 2,
			})
		}
		r.points = merged
	}
	r.points = append(r.points, p)
}

// Points returns a copy of the retained samples, oldest first.
func (r *ring) Points() []TSPoint {
	return append([]TSPoint(nil), r.points...)
}

// Last returns the most recent sample, false when empty.
func (r *ring) Last() (TSPoint, bool) {
	if len(r.points) == 0 {
		return TSPoint{}, false
	}
	return r.points[len(r.points)-1], true
}

// defaultSeriesCapacity is the per-series ring size used by
// newSeriesStore when given zero.
const defaultSeriesCapacity = 256

// SeriesStore keeps one ring per (member, series) pair. It is safe for
// concurrent use.
type SeriesStore struct {
	mu  sync.Mutex
	cap int
	m   map[string]map[string]*ring // member -> series -> ring
}

// newSeriesStore creates a store whose rings hold capacity points each
// (≤ 0 selects defaultSeriesCapacity).
func newSeriesStore(capacity int) *SeriesStore {
	if capacity <= 0 {
		capacity = defaultSeriesCapacity
	}
	return &SeriesStore{cap: capacity, m: make(map[string]map[string]*ring)}
}

// add records one sample for the member's series.
func (s *SeriesStore) add(member, series string, p TSPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName, ok := s.m[member]
	if !ok {
		byName = make(map[string]*ring)
		s.m[member] = byName
	}
	r, ok := byName[series]
	if !ok {
		r = newRing(s.cap)
		byName[series] = r
	}
	r.Add(p)
}

// Points returns the member's series samples, oldest first, nil when
// the member or series is unknown.
func (s *SeriesStore) Points(member, series string) []TSPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[member][series]; ok {
		return r.Points()
	}
	return nil
}

// last returns the member's most recent sample for the series.
func (s *SeriesStore) last(member, series string) (TSPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[member][series]; ok {
		return r.Last()
	}
	return TSPoint{}, false
}

// members returns the known member keys, sorted.
func (s *SeriesStore) members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Names returns the member's series names, sorted; nil for an unknown
// member.
func (s *SeriesStore) Names(member string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName, ok := s.m[member]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(byName))
	for k := range byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// has reports whether the member has any series.
func (s *SeriesStore) has(member string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[member]
	return ok
}

// all returns every member's every series, for serving. The nested
// maps are fresh copies.
func (s *SeriesStore) all() map[string]map[string][]TSPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string][]TSPoint, len(s.m))
	for member, byName := range s.m {
		series := make(map[string][]TSPoint, len(byName))
		for name, r := range byName {
			series[name] = r.Points()
		}
		out[member] = series
	}
	return out
}

// downsample reduces points to at most max samples by pairwise
// averaging passes — the same degradation the ring itself applies —
// for callers serving wide windows to narrow clients.
func downsample(points []TSPoint, max int) []TSPoint {
	if max < 2 {
		max = 2
	}
	out := append([]TSPoint(nil), points...)
	for len(out) > max {
		merged := make([]TSPoint, 0, (len(out)+1)/2)
		for i := 0; i+1 < len(out); i += 2 {
			a, b := out[i], out[i+1]
			merged = append(merged, TSPoint{
				At: a.At.Add(b.At.Sub(a.At) / 2),
				V:  (a.V + b.V) / 2,
			})
		}
		if len(out)%2 == 1 {
			merged = append(merged, out[len(out)-1])
		}
		out = merged
	}
	return out
}
