package bench

import (
	"testing"
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/workload"
)

const (
	orQuery int32 = iota + 201
	orAnswer
)

// oracleScheme is a protocol with nothing to get wrong: the base asks
// every alive holder directly and each answers directly, no overlay and
// no maintenance traffic. Whatever the run reports is therefore the
// driver's own bookkeeping. Its hooks double as probes of the contract
// the driver promises every plug-in.
type oracleScheme struct {
	t *testing.T
	d *churnDriver
	// crashes / leaves are the trace's effective events (node was up).
	crashes, leaves []workload.ChurnEvent
	// wantMsgs[i] is what sample i's Msgs must be: queries + answers.
	wantMsgs []uint64
	joins    int
}

func (o *oracleScheme) registered(node int32) bool { return o.d.reg.pos[node] >= 0 }

// start schedules one check per effective departure at the event's own
// instant; scheduled after the trace, it runs right after the driver
// applied the event.
func (o *oracleScheme) start() {
	for _, ev := range o.crashes {
		node := int32(ev.Node)
		o.d.sim.At(ev.At, func() {
			if o.d.mesh.Alive(node) || !o.registered(node) {
				o.t.Errorf("crash of %d at %v: alive=%v registered=%v, want a corpse the registry still lists",
					node, ev.At, o.d.mesh.Alive(node), o.registered(node))
			}
		})
	}
	for _, ev := range o.leaves {
		node := int32(ev.Node)
		o.d.sim.At(ev.At, func() {
			if o.d.mesh.Alive(node) || o.registered(node) {
				o.t.Errorf("leave of %d at %v: alive=%v registered=%v, want gone from both at once",
					node, ev.At, o.d.mesh.Alive(node), o.registered(node))
			}
		})
	}
}

func (o *oracleScheme) join(node int32) {
	o.joins++
	if !o.d.mesh.Alive(node) || !o.registered(node) {
		o.t.Errorf("join hook for %d before the driver revived and registered it", node)
	}
}

func (o *oracleScheme) leave(node int32) {
	if !o.d.mesh.Alive(node) || !o.registered(node) {
		o.t.Errorf("leave hook for %d after the driver took it down", node)
	}
}

func (o *oracleScheme) tick() {}

// background runs at the sweep cadence, hence right after each sweep:
// the registry must then list exactly the alive nodes.
func (o *oracleScheme) background() (time.Duration, func()) {
	return o.d.p.SweepEvery, func() {
		for i := 0; i < o.d.p.Nodes; i++ {
			if n := int32(i); o.registered(n) != o.d.mesh.Alive(n) {
				o.t.Errorf("after the sweep at %v node %d: registered=%v alive=%v",
					o.d.sim.Now(), n, o.registered(n), o.d.mesh.Alive(n))
			}
		}
	}
}

func (o *oracleScheme) query(q *churnQuery) (int, bool) {
	for _, h := range o.d.byKw[q.kw] {
		if o.d.mesh.Alive(h) {
			o.d.mesh.Send(h, netsim.MeshMsg{From: q.base, Kind: orQuery, A: q.id})
		}
	}
	return 0, false
}

func (o *oracleScheme) handle(to int32, msg netsim.MeshMsg) {
	switch msg.Kind {
	case orQuery:
		o.d.mesh.Send(msg.From, netsim.MeshMsg{From: to, Kind: orAnswer, A: msg.A})
	case orAnswer:
		o.d.queries[msg.A-1].credit(1, 1)
	}
}

// closed runs before the round's sample is appended, so the sample this
// query belongs to has index len(Samples).
func (o *oracleScheme) closed(q *churnQuery) {
	i := len(o.d.run.Samples)
	for len(o.wantMsgs) <= i {
		o.wantMsgs = append(o.wantMsgs, 0)
	}
	o.wantMsgs[i] += 2 * uint64(q.denom)
}

// TestChurnDriverAccounting pins the driver's bookkeeping — trace replay,
// registry, round denominators, message deltas — independently of any
// protocol, against a replay of the trace done here by hand.
func TestChurnDriverAccounting(t *testing.T) {
	p := testChurnParams()
	p.Nodes = 500
	p.Horizon = 45 * time.Second
	p.BurstAt = 24 * time.Second
	// Zero latency completes every round trip within the issue instant, so
	// no holder can die between being counted and answering.
	p.Latency = 0
	const seed = 3

	trace := workload.Merge(
		workload.ExponentialSessions(p.Nodes, p.Horizon, p.MeanSession, p.MeanDowntime, p.GracefulFrac, seed),
		workload.CorrelatedFailureBurst(p.Nodes, p.BurstFrac, p.BurstAt, seed+1),
	)
	o := &oracleScheme{t: t}
	up := make([]bool, p.Nodes)
	for i := range up {
		up[i] = true
	}
	alive := p.Nodes
	var wantAlive []int // per round, at issue time
	nextRound := p.SampleEvery
	wantJoins := 0
	for _, ev := range trace {
		for ; nextRound < ev.At && nextRound+p.CollectAfter <= p.Horizon; nextRound += p.SampleEvery {
			wantAlive = append(wantAlive, alive)
		}
		if ev.Node < p.Bases || up[ev.Node] == (ev.Op == workload.OpJoin) {
			continue
		}
		up[ev.Node] = ev.Op == workload.OpJoin
		switch ev.Op {
		case workload.OpJoin:
			alive++
			wantJoins++
		case workload.OpLeave:
			alive--
			o.leaves = append(o.leaves, ev)
		case workload.OpCrash:
			alive--
			o.crashes = append(o.crashes, ev)
		}
	}
	for ; nextRound+p.CollectAfter <= p.Horizon; nextRound += p.SampleEvery {
		wantAlive = append(wantAlive, alive)
	}
	if len(o.crashes) == 0 || len(o.leaves) == 0 || wantJoins == 0 {
		t.Fatalf("trace exercises nothing: %d crashes, %d leaves, %d joins", len(o.crashes), len(o.leaves), wantJoins)
	}

	run := runChurnScheme(p, "oracle", seed, func(d *churnDriver) churnScheme {
		o.d = d
		return o
	})

	if o.joins != wantJoins {
		t.Errorf("join hook ran %d times, trace has %d effective joins", o.joins, wantJoins)
	}
	if len(run.Samples) != len(wantAlive) {
		t.Fatalf("%d samples, want %d rounds", len(run.Samples), len(wantAlive))
	}
	var total uint64
	for i, s := range run.Samples {
		if s.Recall != 1 {
			t.Errorf("round %d recall %v, want exactly 1", s.Round, s.Recall)
		}
		if s.Alive != wantAlive[i] {
			t.Errorf("round %d alive %d, trace says %d", s.Round, s.Alive, wantAlive[i])
		}
		if s.Msgs != o.wantMsgs[i] || s.Msgs == 0 {
			t.Errorf("round %d msgs %d, want %d queries+answers", s.Round, s.Msgs, o.wantMsgs[i])
		}
		if s.MeanHops != 1 {
			t.Errorf("round %d mean hops %v, want 1", s.Round, s.MeanHops)
		}
		total += s.Msgs
	}
	if run.Msgs != total {
		t.Errorf("run msgs %d, rounds sum to %d: traffic outside any round", run.Msgs, total)
	}
	if run.MeanRecall != 1 || run.PostBurstMinRecall != 1 {
		t.Errorf("summary recall mean=%v postmin=%v, want 1", run.MeanRecall, run.PostBurstMinRecall)
	}
	if run.Health == nil || len(run.Health.Series["recall"]) != len(run.Samples) {
		t.Errorf("health timeline does not cover every round: %+v", run.Health)
	}
}
