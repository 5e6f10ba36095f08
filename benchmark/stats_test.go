package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[99-i] = float64(i + 1) // 100…1: order must not matter
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		got, n := percentile(samples, tc.q)
		if got != tc.want || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v over %d samples, want %v over 100", tc.q, got, n, tc.want)
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile of nothing = %v over %d, want 0 over 0", v, n)
	}
	if v, n := percentile([]float64{7}, 0.95); v != 7 || n != 1 {
		t.Errorf("percentile of one sample = %v over %d, want 7 over 1", v, n)
	}
	if samples[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPerSecondThroughputShrugsOffSlowSeconds(t *testing.T) {
	var done []time.Duration
	add := func(second, n int) {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(second)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	// Eight seconds: five undisturbed, three where a neighbour took half
	// the machine.
	for s, n := range []int{30, 31, 16, 15, 30, 29, 14, 30} {
		add(s, n)
	}
	done = append(done, -time.Millisecond, 8*time.Second) // warm-up and past the window
	counts := perSecondCounts(done, 8*time.Second)
	if len(counts) != 8 || counts[2] != 16 || counts[7] != 30 {
		t.Fatalf("per-second counts = %v", counts)
	}
	if got := favourable(counts, "higher"); got != 30 {
		t.Errorf("throughput at the favourable quartile = %v, want 30 (the undisturbed seconds)", got)
	}
	if got := mean(counts); got > 25 {
		t.Errorf("the whole-window mean %v should have absorbed the slow seconds", got)
	}
	// The trailing partial second is not a slice.
	if got := perSecondCounts(done, 4500*time.Millisecond); len(got) != 4 {
		t.Errorf("a 4.5 s window has %d slices, want 4", len(got))
	}
	// A sub-second window is one slice, scaled to a rate.
	if got := perSecondCounts([]time.Duration{0, 100 * time.Millisecond, 600 * time.Millisecond}, 500*time.Millisecond); len(got) != 1 || got[0] != 4 {
		t.Errorf("sub-second window = %v, want one slice at 4/s", got)
	}
}

func TestSteadyPercentileReadsTheUndisturbedSeconds(t *testing.T) {
	window := 8 * time.Second
	var refs []time.Duration
	var values []float64
	for s := 0; s < 8; s++ {
		base := 40.0
		if s == 2 || s == 3 || s == 6 {
			base = 80 // the same three slow seconds
		}
		for i := 0; i < 20; i++ {
			refs = append(refs, time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond)
			values = append(values, base+float64(i)) // 40…59 or 80…99
		}
	}
	refs = append(refs, -time.Second, window) // outside the window
	values = append(values, 1, 1)
	slices := bySlice(refs, values, window)
	if p50, n := steadyPercentile(slices, 0.50); p50 != 49 || n != 160 {
		t.Errorf("steady p50 = %v over %d samples, want 49 over 160", p50, n)
	}
	if p95, _ := steadyPercentile(slices, 0.95); p95 != 58 {
		t.Errorf("steady p95 = %v, want 58", p95)
	}
	if whole, _ := percentile(values, 0.95); whole < 90 {
		t.Errorf("the whole-window p95 %v should sit in the slow seconds", whole)
	}
	// Slices with no sample are skipped, not read as zero.
	sparse := [][]float64{nil, {5}, nil, {7}}
	if v, n := steadyPercentile(sparse, 0.5); v != 5 || n != 2 {
		t.Errorf("sparse slices: %v over %d, want 5 over 2", v, n)
	}
	if v, n := steadyPercentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("no slices: %v over %d, want 0 over 0", v, n)
	}
}

func TestScheduleDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1_000, 0)
	s := newSchedule(start, 50)
	if s.interval != 20*time.Millisecond {
		t.Fatalf("50/s interval = %v, want 20ms", s.interval)
	}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := s.due(150); !got.Equal(start.Add(3 * time.Second)) {
		t.Errorf("due(150) = %v, want start+3s", got)
	}
	// Due times do not drift with how late earlier requests ran.
	if got := lateBy(s.due(10), s.due(10).Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("lateness = %v, want 7ms", got)
	}
	if got := lateBy(s.due(10), s.due(10).Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early start is on time, got lateness %v", got)
	}
}

func TestWaitUntil(t *testing.T) {
	never := make(chan struct{})
	begin := time.Now()
	if !waitUntil(begin.Add(20*time.Millisecond), never) {
		t.Fatal("waitUntil reported a stop nobody asked for")
	}
	if waited := time.Since(begin); waited < 20*time.Millisecond {
		t.Errorf("returned after %v, before the due time", waited)
	}
	if !waitUntil(begin, never) {
		t.Error("a due time in the past must return at once, unstopped")
	}
	stop := make(chan struct{})
	close(stop)
	if waitUntil(time.Now().Add(time.Hour), stop) {
		t.Error("waitUntil ignored a closed stop channel")
	}
	if waitUntil(begin, stop) {
		t.Error("a closed stop channel wins over a due time in the past")
	}
}
