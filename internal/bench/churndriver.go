package bench

import (
	"strconv"
	"time"

	"bestpeer/internal/netsim"
	"bestpeer/internal/observatory"
	"bestpeer/internal/workload"
)

// churnScheme is one protocol plugged into the churn driver. The driver
// owns everything that is not protocol — the seeded simulator and mesh,
// the registry, the churn trace, holder placement, query rounds, samples
// and health — and calls the scheme at fixed points, each with a stated
// guarantee. Hooks scheduled for the same simulated instant run in the
// order trace → tick → registry sweep → background → query round.
type churnScheme interface {
	// start runs once at time zero, after the keyword holders are placed
	// and the trace is scheduled, before any tick: every node is alive and
	// registered.
	start()
	// handle receives one mesh message addressed to a node that is alive
	// at delivery time.
	handle(to int32, msg netsim.MeshMsg)
	// join is called with the node already alive and back in the
	// registry, holding whatever state it had when it went down.
	join(node int32)
	// leave is called for a graceful leave while the node is still alive
	// and registered, so it can send its goodbyes; the driver deregisters
	// it and takes it off the mesh immediately after. A crash calls
	// nothing: the node just stops, and stays in the registry until the
	// next sweep.
	leave(node int32)
	// tick is one maintenance round, every RepairEvery.
	tick()
	// background is optional extra periodic work (every ≤ 0: none).
	background() (every time.Duration, work func())
	// query fans q out from q.base; answers come back through q.credit.
	// A scheme that instead answers from the base's own state returns
	// served=true and how many of the holders it named are alive now.
	query(q *churnQuery) (live int, served bool)
	// closed is called as q's round closes, after its recall is taken.
	closed(q *churnQuery)
}

// aliveRegistry is the model's LIGLO: the set of members it believes
// online, with O(1) add, swap-remove and uniform sampling. Graceful
// leaves deregister immediately; crashes linger until a sweep notices.
type aliveRegistry struct {
	list []int32
	pos  []int32 // node -> index in list, -1 when absent
}

func newAliveRegistry(n int) *aliveRegistry {
	r := &aliveRegistry{list: make([]int32, n), pos: make([]int32, n)}
	for i := range r.list {
		r.list[i] = int32(i)
		r.pos[i] = int32(i)
	}
	return r
}

func (r *aliveRegistry) Add(i int32) {
	if r.pos[i] >= 0 {
		return
	}
	r.pos[i] = int32(len(r.list))
	r.list = append(r.list, i)
}

func (r *aliveRegistry) Remove(i int32) {
	p := r.pos[i]
	if p < 0 {
		return
	}
	last := r.list[len(r.list)-1]
	r.list[p] = last
	r.pos[last] = p
	r.list = r.list[:len(r.list)-1]
	r.pos[i] = -1
}

// Sample draws a uniform member other than not; ok is false when none
// exists.
func (r *aliveRegistry) Sample(rng interface{ Intn(int) int }, not int32) (int32, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		if len(r.list) == 0 || (len(r.list) == 1 && r.list[0] == not) {
			return 0, false
		}
		j := r.list[rng.Intn(len(r.list))]
		if j != not {
			return j, true
		}
	}
	return 0, false
}

// churnQuery is one in-flight query of a round. The scheme addresses it
// by id in its messages and hangs its own per-query state on ext.
type churnQuery struct {
	id   int32 // index into churnDriver.queries, plus one
	kw   int
	base int32
	// denom is the keyword's alive holders when the query was issued.
	denom   int
	answers int
	// hopSum / hopN accumulate the overlay depth of each answer message.
	hopSum, hopN int
	closed       bool
	ext          any
}

// credit records one answer message naming found holders at overlay
// depth hops; it reports false, recording nothing, once the round closed.
func (q *churnQuery) credit(found, hops int) bool {
	if q.closed {
		return false
	}
	q.answers += found
	q.hopSum += hops
	q.hopN++
	return true
}

// churnKeyword names keyword kw for the schemes that hash or cache it.
func churnKeyword(kw int) string { return "kw" + strconv.Itoa(kw) }

// churnDriver runs one scheme through the churn experiment.
type churnDriver struct {
	p      ChurnParams
	seed   int64
	sim    *netsim.Sim
	mesh   *netsim.Mesh
	reg    *aliveRegistry
	scheme churnScheme

	holdKw []int16   // node -> keyword it holds, -1 when none
	byKw   [][]int32 // keyword -> holder nodes (fixed membership)

	queries []*churnQuery
	run     ChurnSchemeRun

	// health folds each closed round into the observatory rule engine on
	// the simulated clock; prev* carry the last round's cumulative
	// counters so the signals are per-window rates, not running totals.
	health           *observatory.Health
	prevRepairs      uint64
	prevCacheHits    uint64
	prevCacheLookups uint64
}

// simTime maps simulated time onto the wall-clock the qroute and health
// engines expect.
func (d *churnDriver) simTime() time.Time {
	return time.Unix(0, 0).UTC().Add(d.sim.Now())
}

// runChurnScheme executes one scheme's full run. The seeded RNG is drawn
// in a fixed order — whatever newScheme draws (the overlay family's
// random edges), then the holder placement — and every scheme replays the
// same trace, so runs differ by protocol alone.
func runChurnScheme(p ChurnParams, name string, seed int64, newScheme func(*churnDriver) churnScheme) ChurnSchemeRun {
	d := &churnDriver{
		p:      p,
		seed:   seed,
		sim:    netsim.NewSimSeeded(seed),
		reg:    newAliveRegistry(p.Nodes),
		health: observatory.NewHealth(churnHealthRules(p), 256, 1024),
		run:    ChurnSchemeRun{Scheme: name},
	}
	d.mesh = netsim.NewMesh(d.sim, p.Nodes, p.Latency)
	d.scheme = newScheme(d)
	d.mesh.SetHandler(d.scheme.handle)

	// Bases are nodes [0, Bases) — excluded from churn and from holder
	// sets, so recall measures the network, not base lifecycle. Every
	// other node holds at most one keyword.
	rng := d.sim.Rand()
	d.holdKw = make([]int16, p.Nodes)
	for i := range d.holdKw {
		d.holdKw[i] = -1
	}
	d.byKw = make([][]int32, p.Keywords)
	for kw := range d.byKw {
		for len(d.byKw[kw]) < p.HoldersPerKeyword {
			j := int32(p.Bases + rng.Intn(p.Nodes-p.Bases))
			if d.holdKw[j] < 0 {
				d.holdKw[j] = int16(kw)
				d.byKw[kw] = append(d.byKw[kw], j)
			}
		}
	}

	// Exponential sessions plus one correlated burst, base nodes filtered
	// out.
	trace := workload.Merge(
		workload.ExponentialSessions(p.Nodes, p.Horizon, p.MeanSession, p.MeanDowntime, p.GracefulFrac, seed),
		workload.CorrelatedFailureBurst(p.Nodes, p.BurstFrac, p.BurstAt, seed+1),
	)
	for _, ev := range trace {
		if ev.Node < p.Bases {
			continue
		}
		ev := ev
		d.sim.At(ev.At, func() { d.apply(ev) })
	}

	d.scheme.start()
	for t := p.RepairEvery; t <= p.Horizon; t += p.RepairEvery {
		d.sim.At(t, d.scheme.tick)
	}
	for t := p.SweepEvery; t <= p.Horizon; t += p.SweepEvery {
		d.sim.At(t, d.sweep)
	}
	if every, work := d.scheme.background(); every > 0 {
		for t := every; t <= p.Horizon; t += every {
			d.sim.At(t, work)
		}
	}
	round := 0
	for t := p.SampleEvery; t+p.CollectAfter <= p.Horizon; t += p.SampleEvery {
		round++
		r := round
		d.sim.At(t, func() { d.issueRound(r) })
	}
	d.sim.Run()

	d.run.Msgs = d.mesh.Stats().Sent
	d.run.Health = buildHealthTimeline(d.health, name)
	finishChurnRun(&d.run, p)
	return d.run
}

// apply replays one churn event. Ops are idempotent against state (a
// merged trace may crash an already-offline node).
func (d *churnDriver) apply(ev workload.ChurnEvent) {
	node := int32(ev.Node)
	if d.mesh.Alive(node) == (ev.Op == workload.OpJoin) {
		return
	}
	switch ev.Op {
	case workload.OpJoin:
		d.mesh.SetAlive(node, true)
		d.reg.Add(node)
		d.scheme.join(node)
	case workload.OpLeave:
		d.scheme.leave(node)
		d.reg.Remove(node) // deregister: the registry drops it immediately
		d.mesh.SetAlive(node, false)
	case workload.OpCrash:
		// No notice, no deregistration: the registry keeps the corpse
		// until its sweep, and peers only learn through their own failure
		// detection.
		d.mesh.SetAlive(node, false)
	}
}

// sweep is the registry's failure detector: drop members that are no
// longer alive (crashed without deregistering).
func (d *churnDriver) sweep() {
	for idx := len(d.reg.list) - 1; idx >= 0; idx-- {
		if n := d.reg.list[idx]; !d.mesh.Alive(n) {
			d.reg.Remove(n)
		}
	}
}

func (d *churnDriver) aliveHolders(kw int) int {
	n := 0
	for _, h := range d.byKw[kw] {
		if d.mesh.Alive(h) {
			n++
		}
	}
	return n
}

// issueRound fires one query per base (keyword rotating by base slot)
// and schedules the round's close. Queries served from a base's own
// state are counted against the holders alive *now*, so staleness costs
// recall exactly as it would a real client.
func (d *churnDriver) issueRound(round int) {
	alive := d.mesh.AliveCount()
	msgsBefore := d.mesh.Stats().Sent
	var fanned []*churnQuery
	servedRecall, served := 0.0, 0
	for bi := 0; bi < d.p.Bases; bi++ {
		kw := bi % d.p.Keywords
		denom := d.aliveHolders(kw)
		if denom == 0 {
			continue
		}
		q := &churnQuery{id: int32(len(d.queries) + 1), kw: kw, base: int32(bi), denom: denom}
		if live, ok := d.scheme.query(q); ok {
			servedRecall += float64(live) / float64(denom)
			served++
			continue
		}
		d.queries = append(d.queries, q)
		fanned = append(fanned, q)
	}
	d.sim.After(d.p.CollectAfter, func() {
		d.closeRound(round, fanned, alive, msgsBefore, servedRecall, served)
	})
}

// closeRound finalizes a query round into one ChurnSample.
func (d *churnDriver) closeRound(round int, qs []*churnQuery, alive int, msgsBefore uint64, recallSum float64, nq int) {
	hopSum, hopN := 0, 0
	for _, q := range qs {
		q.closed = true
		// A holder can rejoin inside the collect window and answer even
		// though it was outside the issue-time denominator; cap at 1.
		recallSum += min(1, float64(q.answers)/float64(q.denom))
		nq++
		hopSum += q.hopSum
		hopN += q.hopN
		d.scheme.closed(q)
	}
	sample := ChurnSample{
		Round: round,
		TMS:   ms(d.sim.Now()),
		Alive: alive,
		Msgs:  d.mesh.Stats().Sent - msgsBefore,
	}
	if nq > 0 {
		sample.Recall = recallSum / float64(nq)
	}
	if hopN > 0 {
		sample.MeanHops = float64(hopSum) / float64(hopN)
	}
	if d.run.CacheLookups > 0 {
		sample.CacheHitRate = float64(d.run.CacheHits) / float64(d.run.CacheLookups)
	}
	d.run.Samples = append(d.run.Samples, sample)
	d.ingestHealth(sample, nq)
}

// ingestHealth folds one closed round into the health engine as
// per-window signals: recall only when the round actually measured
// queries, cache hit rate only when the window had lookups (a quiet
// window is not a collapse), and the repair rate as this window's edge
// backfills over the round cadence.
func (d *churnDriver) ingestHealth(sample ChurnSample, nq int) {
	window := d.p.SampleEvery.Seconds()
	signals := map[string]float64{
		"alive":                        float64(sample.Alive) / float64(d.p.Nodes),
		observatory.SigRepairAddedPerS: float64(d.run.Repairs-d.prevRepairs) / window,
	}
	if nq > 0 {
		signals["recall"] = sample.Recall
	}
	if lookups := d.run.CacheLookups - d.prevCacheLookups; lookups > 0 {
		signals[observatory.SigCacheHitRate] =
			float64(d.run.CacheHits-d.prevCacheHits) / float64(lookups)
	}
	d.prevRepairs = d.run.Repairs
	d.prevCacheHits = d.run.CacheHits
	d.prevCacheLookups = d.run.CacheLookups
	d.health.Ingest(d.run.Scheme, d.simTime(), signals, "")
}
