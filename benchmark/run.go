package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
)

// scale sizes a run. The full scale is what BENCHMARK.json measures; the
// quick scale exists so `go test ./benchmark/...` can drive every code
// path in a few seconds.
type scale struct {
	nodes       int
	objects     int // per node on the scan fleets (paper: 1000)
	lineObjects int // per node on reconfig-line; fits the buffer pool
	warmup      time.Duration
	setups      int           // fewest fleet set-ups per run; setup_s is their first quartile
	setupFor    time.Duration // keep setting up (to maxSetups) until this much set-up time is spent
	checks      int           // published keywords probed by the visibility check
	// cacheRate is zipf-cache's offered queries/s. The quick scale
	// offers less so that the tests also pass under the race detector,
	// where every frame costs ten times as much.
	cacheRate float64
}

var (
	fullScale  = scale{nodes: 16, objects: 1000, lineObjects: 50, warmup: 2 * time.Second, setups: 7, setupFor: 3 * time.Second, checks: 8, cacheRate: 50}
	quickScale = scale{nodes: 4, objects: 100, lineObjects: 20, warmup: 200 * time.Millisecond, setups: 2, checks: 3, cacheRate: 20}
)

const (
	queryTimeout  = 2 * time.Second        // closed-loop collection window
	cacheTimeout  = 300 * time.Millisecond // zipf-cache collection window
	cacheInFlight = 16                     // zipf-cache concurrency cap
	zipfSkew      = 1.2
	writerRate    = 200.0 // publish-mix writer ops/s
	pubKeywords   = 50    // pub0…pub49, disjoint from the queried kwN vocabulary
	// deleteLag is how many rounds after its Put an object is deleted:
	// at 200 ops/s over 15 peers a round is 75 ms, so store size is
	// level from 1.5 s into the warm-up onwards.
	deleteLag       = 20
	sessionRuns     = 4 // reconfig-line: Fig. 8a's runs 1–4
	sequenceLen     = 1 << 14
	maxFailureNotes = 8
	maxSetups       = 25
	// queueSampleEvery is how often the traced run reads the send-queue gauges.
	queueSampleEvery = 50 * time.Millisecond
)

// querySample is one query as its client saw it.
type querySample struct {
	ref      time.Duration // offset from the window start that decides membership: completion (closed loop) or due time (open loop)
	open     bool          // issued by an open-loop generator
	late     time.Duration // start − due (open loop only)
	first    time.Duration
	last     time.Duration
	answers  int
	expected int
	hops     int // Σ Answer.Hops
	run      int // 1…4 within a reconfig-line session, else 0
	cached   bool
}

// queryRecord is what the traced run keeps to harvest hop spans later.
type queryRecord struct {
	id      wire.MsgID
	keyword string
	start   time.Time
	end     time.Time
	run     int
}

type putSample struct {
	ref  time.Duration
	lat  time.Duration // due → return
	late time.Duration // due → start: how far behind the writer ran
}

type pubInfo struct {
	node    int
	keyword string
	size    int
}

// run is one workload execution: a fleet, its load goroutines and what
// they observed.
type run struct {
	w      *workloadDef
	sc     scale
	seed   int64
	window time.Duration
	f      *fleet
	or     *oracle
	tr     *tracer // nil when untraced

	start time.Time // load start; the window opens warm-up later
	t0    time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	mu        sync.Mutex
	samples   []querySample
	records   []queryRecord
	puts      []putSample
	attempted int
	failed    int
	notes     []string

	// Writer state; touched by the single writer goroutine while it
	// runs and by the post-window checks after it has stopped.
	writerOps int
	rng       *rand.Rand
	live      map[string]pubInfo
	deleted   map[string]pubInfo
}

func (r *run) fail(note string) {
	r.mu.Lock()
	r.failed++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, note)
	}
	r.mu.Unlock()
}

// spawn runs fn on a tracked goroutine; a panic is contained and counted
// as a failed operation instead of taking the measurement down.
func (r *run) spawn(fn func()) {
	r.wg.Add(1)
	go r.contain(fn)
}

func (r *run) contain(fn func()) {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Sprintf("load goroutine panicked: %v", p))
		}
	}()
	fn()
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *run) inWindow(ref time.Duration) bool { return ref >= 0 && ref < r.window }

// query issues one keyword query from the base, verifies every answer
// and records the sample. due is zero for closed-loop clients.
func (r *run) query(keyword string, due time.Time, runNo int) {
	base := r.f.spec.topo.Base
	expected := r.or.expected(keyword, base, r.w.skipLocal)
	if expected == 0 {
		// WaitAnswers = 0 would sleep out the whole timeout.
		return
	}
	var ag agent.Agent = newKeywordAgent(keyword)
	if r.tr != nil {
		ag = r.tr.wrapAgent(ag, base)
	}
	start := time.Now()
	res, err := r.f.base().Query(ag, core.QueryOptions{
		TTL:         r.w.ttl(r.sc),
		Timeout:     r.w.timeout,
		WaitAnswers: expected,
		SkipLocal:   r.w.skipLocal,
	})
	end := time.Now()

	s := querySample{expected: expected, run: runNo, ref: end.Sub(r.t0)}
	if !due.IsZero() {
		s.open = true
		s.ref = due.Sub(r.t0)
		s.late = lateBy(due, start)
	}
	counted := r.inWindow(s.ref)
	if err != nil {
		if counted {
			r.mu.Lock()
			r.attempted++
			r.mu.Unlock()
			r.fail(fmt.Sprintf("query %q: %v", keyword, err))
		}
		return
	}
	s.answers = len(res.Answers)
	s.cached = res.Cached
	if res.Cached {
		// A base-cache hit replays the original flood's arrival times;
		// what the user waited is the lookup.
		s.first, s.last = res.Elapsed, res.Elapsed
	} else if len(res.Answers) > 0 {
		s.first, s.last = res.Answers[0].At, res.Answers[0].At
		for _, a := range res.Answers {
			if a.At < s.first {
				s.first = a.At
			}
			if a.At > s.last {
				s.last = a.At
			}
		}
	} else {
		s.first, s.last = res.Elapsed, res.Elapsed
	}
	s.first += s.late
	s.last += s.late
	for _, a := range res.Answers {
		s.hops += a.Hops
	}
	var problem string
	switch verr := r.or.verify(r.f, keyword, res.Answers); {
	case verr != nil:
		problem = verr.Error()
	case s.answers == 0:
		problem = fmt.Sprintf("no answers, %d expected", expected)
	case s.answers < expected && !r.w.partialOK:
		problem = fmt.Sprintf("%d of %d answers before the %v window closed", s.answers, expected, r.w.timeout)
	}
	if !counted {
		return
	}
	r.mu.Lock()
	r.attempted++
	r.samples = append(r.samples, s)
	if r.tr != nil {
		r.records = append(r.records, queryRecord{id: res.ID, keyword: keyword, start: start, end: end, run: runNo})
	}
	r.mu.Unlock()
	if problem != "" {
		r.fail(fmt.Sprintf("query %q: %s", keyword, problem))
	}
}

// closedLoopClient issues uniformly drawn keywords back to back: the
// next query leaves only when the previous one has its last answer.
func (r *run) closedLoopClient(id int) {
	seq := r.f.spec.data.UniformQueries(r.seed*1000+int64(id), sequenceLen)
	for i := 0; !r.stopped(); i++ {
		r.query(seq[i%len(seq)], time.Time{}, 0)
	}
}

// sessionClient replays Fig. 8a: reset the base to its initial peers,
// then ask the planted query four times with reconfiguration on.
func (r *run) sessionClient() {
	initial := r.f.peersOf(r.f.spec.topo.Base)
	for !r.stopped() {
		r.f.base().SetPeers(initial)
		for runNo := 1; runNo <= sessionRuns && !r.stopped(); runNo++ {
			r.query(r.f.spec.data.PlantedKeyword, time.Time{}, runNo)
		}
	}
}

// openLoopClients offers Zipf-drawn keywords at a fixed rate. Each query
// is due at a scheduled instant whatever happened to earlier ones; at
// most cacheInFlight are outstanding, the rest of the backlog shows up
// as lateness.
func (r *run) openLoopClients() {
	type job struct {
		keyword string
		due     time.Time
	}
	jobs := make(chan job)
	for w := 0; w < cacheInFlight; w++ {
		r.spawn(func() {
			for j := range jobs {
				r.query(j.keyword, j.due, 0)
			}
		})
	}
	r.spawn(func() {
		defer close(jobs)
		seq := zipfSequence(r.f.spec.data, r.seed, sequenceLen)
		sched := newSchedule(r.start, r.sc.cacheRate)
		for i := 0; ; i++ {
			due := sched.due(i)
			if !waitUntil(due, r.stop) {
				return
			}
			select {
			case jobs <- job{seq[i%len(seq)], due}:
			case <-r.stop:
				return
			}
		}
	})
}

// peerNodes lists every node but the base, the writer's targets.
func (r *run) peerNodes() []int {
	var out []int
	for i := range r.f.nodes {
		if i != r.f.spec.topo.Base {
			out = append(out, i)
		}
	}
	return out
}

func pubName(node, round int) string { return fmt.Sprintf("pub-%d-%d", node, round) }

// writerOp is the writer's k-th operation: Put a fresh object on the
// next peer round-robin and Delete the one put there deleteLag rounds
// earlier, so store size stays level.
func (r *run) writerOp(k int, peers []int) error {
	node := peers[k%len(peers)]
	round := k / len(peers)
	data := make([]byte, r.f.spec.data.ObjectSize)
	r.rng.Read(data)
	obj := &storm.Object{
		Name:     pubName(node, round),
		Keywords: []string{fmt.Sprintf("pub%d", k%pubKeywords)},
		Data:     data,
	}
	st := r.f.stores[node]
	if _, err := st.Put(obj); err != nil {
		return fmt.Errorf("put %s on node %d: %w", obj.Name, node, err)
	}
	r.live[obj.Name] = pubInfo{node: node, keyword: obj.Keywords[0], size: len(data)}
	if round >= deleteLag {
		old := pubName(node, round-deleteLag)
		if err := st.Delete(old); err != nil {
			return fmt.Errorf("delete %s on node %d: %w", old, node, err)
		}
		r.deleted[old] = r.live[old]
		delete(r.live, old)
	}
	return nil
}

func (r *run) recordPut(p putSample, err error) {
	if !r.inWindow(p.ref) {
		return
	}
	r.mu.Lock()
	r.attempted++
	r.puts = append(r.puts, p)
	r.mu.Unlock()
	if err != nil {
		r.fail(err.Error())
	}
}

// openLoopWriter publishes at writerRate beside the query client.
func (r *run) openLoopWriter() {
	peers := r.peerNodes()
	sched := newSchedule(r.start, writerRate)
	for ; ; r.writerOps++ {
		due := sched.due(r.writerOps)
		if !waitUntil(due, r.stop) {
			return
		}
		late := lateBy(due, time.Now())
		err := r.writerOp(r.writerOps, peers)
		r.recordPut(putSample{ref: due.Sub(r.t0), lat: time.Since(due), late: late}, err)
	}
}

// checkVisibility queries a sample of published keywords after the
// window: every live object must be found, no deleted one may be.
func (r *run) checkVisibility() {
	byKeyword := make(map[string]map[string]bool)
	for name, info := range r.live {
		if byKeyword[info.keyword] == nil {
			byKeyword[info.keyword] = make(map[string]bool)
		}
		byKeyword[info.keyword][name] = true
	}
	keywords := make([]string, 0, len(byKeyword))
	for kw := range byKeyword {
		keywords = append(keywords, kw)
	}
	sort.Strings(keywords)
	if len(keywords) > r.sc.checks {
		keywords = keywords[:r.sc.checks]
	}
	for _, kw := range keywords {
		want := byKeyword[kw]
		r.mu.Lock()
		r.attempted++
		r.mu.Unlock()
		res, err := r.f.base().Query(newKeywordAgent(kw), core.QueryOptions{
			TTL: r.w.ttl(r.sc), Timeout: r.w.timeout, WaitAnswers: len(want), SkipLocal: true,
		})
		if err != nil {
			r.fail(fmt.Sprintf("visibility %q: %v", kw, err))
			continue
		}
		got := make(map[string]bool, len(res.Answers))
		for _, a := range res.Answers {
			info, live := r.live[a.Result.Name]
			switch {
			case !live:
				if _, gone := r.deleted[a.Result.Name]; gone {
					r.fail(fmt.Sprintf("visibility %q: deleted object %s still answers", kw, a.Result.Name))
				} else {
					r.fail(fmt.Sprintf("visibility %q: unknown object %s", kw, a.Result.Name))
				}
			case r.f.addrIdx[a.PeerAddr] != info.node || len(a.Result.Data) != info.size:
				r.fail(fmt.Sprintf("visibility %q: %s came back from the wrong node or with the wrong size", kw, a.Result.Name))
			}
			got[a.Result.Name] = true
		}
		for name := range want {
			if !got[name] {
				r.fail(fmt.Sprintf("visibility %q: live object %s not found", kw, name))
			}
		}
	}
}

// edge is what is sampled at the two ends of the measured window.
type edge struct {
	cpu   time.Duration
	alloc uint64
	fc    fleetCounters
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *run) edge() edge {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return edge{cpu: processCPU(), alloc: m.TotalAlloc, fc: r.f.counters(false)}
}

// observed is everything one workload execution produced, before it is
// folded into named metrics.
type observed struct {
	setup      []time.Duration
	samples    []querySample
	records    []queryRecord
	puts       []putSample
	attempted  int
	failed     int
	notes      []string
	window     time.Duration
	open, shut edge
	cpuAt      []time.Duration // process CPU time at each whole second of the window, from its start
	quiet0     fleetCounters   // before the load started, pool counters included
	quiet1     fleetCounters   // after it stopped
	queueMax   float64
	userBytes  uint64 // Σ name+keyword+data of the objects live at the end
	diskBytes  uint64 // store files + WALs at the end
}

// execute stands the fleet up, drives the workload through warm-up and
// the measured window, runs the post-window checks and tears everything
// down again.
func execute(w *workloadDef, sc scale, seed int64, window time.Duration, root string, tr *tracer) (*observed, error) {
	spec := w.fleet(sc, seed)
	or := newOracle(spec.data, spec.topo.N)
	out := &observed{window: window}

	// The fleet is set up at least sc.setups times, and again while the
	// set-ups so far took less than sc.setupFor together: a 15 ms line
	// fleet gets 25 samples, a 0.3 s durable fleet the minimum.
	goroutines := runtime.NumGoroutine()
	var (
		f     *fleet
		spent time.Duration
	)
	for i := 0; i < sc.setups || (spent < sc.setupFor && i < maxSetups); i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
			if err := settleGoroutines(goroutines); err != nil {
				return nil, err
			}
		}
		begin := time.Now()
		var err error
		if f, err = buildFleet(spec, root, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(begin))
		spent += time.Since(begin)
	}

	r := &run{
		w: w, sc: sc, seed: seed, window: window, f: f, or: or, tr: tr,
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		live:    make(map[string]pubInfo),
		deleted: make(map[string]pubInfo),
	}
	out.quiet0 = f.counters(true)
	r.start = time.Now()
	r.t0 = r.start.Add(sc.warmup)
	w.load(r)

	never := make(chan struct{})
	waitUntil(r.t0, never)
	if tr != nil {
		tr.begin()
	}
	out.open = r.edge()
	end := r.t0.Add(window)
	// Process CPU time is read at every whole second of the window, so
	// CPU per query can be taken second by second like the timings.
	out.cpuAt = append(out.cpuAt, out.open.cpu)
	for s := time.Second; s <= window; s += time.Second {
		next := r.t0.Add(s)
		for tr != nil && time.Until(next) > queueSampleEvery {
			// Only the traced run samples queue depth: a registry
			// snapshot per node is not free and must stay out of the
			// end-to-end figures.
			waitUntil(time.Now().Add(queueSampleEvery), never)
			if d := f.queueDepth(); d > out.queueMax {
				out.queueMax = d
			}
		}
		waitUntil(next, never)
		out.cpuAt = append(out.cpuAt, processCPU())
	}
	waitUntil(end, never)
	out.shut = r.edge()
	if tr != nil {
		tr.end()
	}
	close(r.stop)
	r.wg.Wait()
	out.quiet1 = f.counters(true)

	if w.writer {
		r.checkVisibility()
	}
	out.userBytes, out.diskBytes = r.footprint()
	out.samples, out.records, out.puts = r.samples, r.records, r.puts
	out.attempted, out.failed, out.notes = r.attempted, r.failed, r.notes
	if tr != nil {
		tr.harvest(r, out)
	}

	if err := f.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if err := settleGoroutines(goroutines); err != nil {
		return nil, err
	}
	return out, nil
}

// footprint compares what the stores occupy on disk with the bytes users
// put in them: the space side of any read/write trade-off.
func (r *run) footprint() (user, disk uint64) {
	for i, objs := range r.or.objs {
		for name, info := range objs {
			user += uint64(len(name) + len(info.keyword) + info.size)
		}
		_ = r.f.stores[i].Sync() // best effort: an unflushed page only understates the file size
		for _, path := range []string{r.f.storePath(i), r.f.walPath(i)} {
			if st, err := os.Stat(path); err == nil {
				disk += uint64(st.Size())
			}
		}
	}
	for name, info := range r.live {
		user += uint64(len(name) + len(info.keyword) + info.size)
	}
	return user, disk
}
