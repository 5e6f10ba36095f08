package netsim

import (
	"testing"
	"time"
)

func TestSimOrdersEventsByTime(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v", got)
	}
}

func TestSimFIFOAmongSimultaneous(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	var fired []time.Duration
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(2*time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 3*time.Second {
		t.Fatalf("nested events fired at %v", fired)
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := NewSim()
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestSimNegativeDelayClamped(t *testing.T) {
	s := NewSim()
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %v", s.Now())
	}
}

func TestSimDeterminism(t *testing.T) {
	trace := func() []time.Duration {
		s := NewSim()
		var out []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration((i*37)%17) * time.Millisecond
			s.After(d, func() {
				out = append(out, s.Now())
				if s.steps < 200 {
					s.After(d/2+time.Microsecond, func() { out = append(out, s.Now()) })
				}
			})
		}
		s.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceSingleServerSerializes(t *testing.T) {
	s := NewSim()
	r := NewResource(s, 1)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		r.Submit(10*time.Millisecond, func() { ends = append(ends, s.Now()) })
	}
	if r.busy != 1 || len(r.queue) != 2 {
		t.Fatalf("in service %d queued %d", r.busy, len(r.queue))
	}
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceMultiServerParallel(t *testing.T) {
	s := NewSim()
	r := NewResource(s, 3)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		r.Submit(10*time.Millisecond, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	for i, e := range ends {
		if e != 10*time.Millisecond {
			t.Fatalf("job %d ended at %v, want 10ms (parallel)", i, e)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := NewSim()
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Submit(time.Duration(5-i)*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("jobs started out of order: %v", order)
		}
	}
}

func TestResourceZeroAndNegativeDuration(t *testing.T) {
	s := NewSim()
	r := NewResource(s, 1)
	ran := 0
	r.Submit(0, func() { ran++ })
	r.Submit(-time.Second, func() { ran++ })
	s.Run()
	if ran != 2 {
		t.Fatalf("ran = %d", ran)
	}
	if s.Now() != 0 {
		t.Fatalf("zero-duration jobs advanced clock to %v", s.Now())
	}
}

func TestResourceServersFloor(t *testing.T) {
	s := NewSim()
	r := NewResource(s, 0)
	if r.servers != 1 {
		t.Fatalf("servers = %d, want floor of 1", r.servers)
	}
}
