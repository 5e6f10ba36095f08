package observatory

import (
	"testing"
	"time"
)

func ts(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func TestRingDownsamples(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		r.Add(TSPoint{At: ts(i), V: float64(i)})
	}
	if len(r.points) != 4 {
		t.Fatalf("len = %d, want 4", len(r.points))
	}
	// The fifth add merges the four retained points pairwise first:
	// (0,1)->0.5 and (2,3)->2.5, then appends 4.
	r.Add(TSPoint{At: ts(4), V: 4})
	pts := r.Points()
	if len(pts) != 3 {
		t.Fatalf("after downsample len = %d, want 3: %+v", len(pts), pts)
	}
	if pts[0].V != 0.5 || pts[1].V != 2.5 || pts[2].V != 4 {
		t.Fatalf("merged values = %+v", pts)
	}
	// Merged timestamps are midpoints, and order is preserved.
	if !pts[0].At.Equal(ts(0).Add(500 * time.Millisecond)) {
		t.Fatalf("merged timestamp = %v", pts[0].At)
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].At.After(pts[i-1].At) {
			t.Fatalf("timestamps out of order: %+v", pts)
		}
	}
	// The retention window keeps the oldest history (degraded), so a
	// long run never loses the left edge entirely.
	for i := 5; i < 100; i++ {
		r.Add(TSPoint{At: ts(i), V: float64(i)})
	}
	pts = r.Points()
	if len(pts) > 4 {
		t.Fatalf("ring exceeded capacity: %d", len(pts))
	}
	if last, ok := r.Last(); !ok || last.V != 99 {
		t.Fatalf("last = %+v %v", last, ok)
	}
}

func TestSeriesStore(t *testing.T) {
	s := newSeriesStore(8)
	s.add("m1", "up", TSPoint{At: ts(1), V: 1})
	s.add("m1", "depth", TSPoint{At: ts(1), V: 5})
	s.add("m2", "up", TSPoint{At: ts(1), V: 0})
	if got := s.members(); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("members = %v", got)
	}
	if got := s.Names("m1"); len(got) != 2 || got[0] != "depth" || got[1] != "up" {
		t.Fatalf("names = %v", got)
	}
	if got := s.Names("unknown"); got != nil {
		t.Fatalf("unknown member names = %v", got)
	}
	if pts := s.Points("m1", "depth"); len(pts) != 1 || pts[0].V != 5 {
		t.Fatalf("points = %+v", pts)
	}
	if pts := s.Points("m1", "missing"); pts != nil {
		t.Fatalf("missing series points = %+v", pts)
	}
	all := s.all()
	if len(all) != 2 || len(all["m1"]) != 2 {
		t.Fatalf("all = %+v", all)
	}
}

func TestDownsampleHelper(t *testing.T) {
	var pts []TSPoint
	for i := 0; i < 100; i++ {
		pts = append(pts, TSPoint{At: ts(i), V: float64(i)})
	}
	out := downsample(pts, 16)
	if len(out) > 16 || len(out) < 8 {
		t.Fatalf("downsampled to %d points", len(out))
	}
	for i := 1; i < len(out); i++ {
		if !out[i].At.After(out[i-1].At) {
			t.Fatalf("timestamps out of order: %+v", out)
		}
	}
	// Means are preserved within merging error; first < last still holds.
	if out[0].V >= out[len(out)-1].V {
		t.Fatalf("trend lost: %+v", out)
	}
	// Short inputs pass through untouched.
	if got := downsample(pts[:3], 16); len(got) != 3 {
		t.Fatalf("short input resampled: %+v", got)
	}
}
