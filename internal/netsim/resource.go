package netsim

import "time"

// resource is a FIFO multi-server queue: up to Servers jobs are in service
// simultaneously, the rest wait in arrival order. It models both host CPUs
// (Servers = thread count) and link capacity (Servers = 1 gives
// store-and-forward serialization on the link).
type resource struct {
	sim     *Sim
	servers int
	busy    int
	queue   []job
}

type job struct {
	dur  time.Duration
	done func()
}

// newResource creates a resource with the given number of servers
// (must be >= 1).
func newResource(sim *Sim, servers int) *resource {
	if servers < 1 {
		servers = 1
	}
	return &resource{sim: sim, servers: servers}
}

// Submit enqueues a job that occupies one server for dur, then calls done
// (done may be nil). Jobs start in FIFO order as servers free up.
func (r *resource) Submit(dur time.Duration, done func()) {
	if dur < 0 {
		dur = 0
	}
	if r.busy < r.servers {
		r.start(job{dur, done})
		return
	}
	r.queue = append(r.queue, job{dur, done})
}

func (r *resource) start(j job) {
	r.busy++
	r.sim.After(j.dur, func() {
		r.busy--
		if j.done != nil {
			j.done()
		}
		if len(r.queue) > 0 && r.busy < r.servers {
			next := r.queue[0]
			r.queue = r.queue[1:]
			r.start(next)
		}
	})
}
