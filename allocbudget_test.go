package bestpeer

// The allocation budget of one query hop (ROADMAP aim 1c), as exact
// counts rather than timings: the codec on the two frames the paper's
// workload sends — the keyword agent going out, ten 1 KB results coming
// back — and the store scan between them. `make perfcheck` runs these
// and the benchmarks below; a count that rises fails the build.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"bestpeer/internal/agent"
	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so the steady-state counts do not hold under it.
var raceEnabled bool

const (
	hopBase = "127.0.0.1:54321"
	hopPeer = "127.0.0.1:54322"
)

// hopAgentFrame is the keyword agent as a base node sends it with hop
// tracing on: a body under 100 bytes that the trace extension lifts over
// the compression threshold.
func hopAgentFrame(tb testing.TB) *wire.Envelope {
	tb.Helper()
	state, err := (&agent.KeywordAgent{Query: "kw7"}).State()
	if err != nil {
		tb.Fatal(err)
	}
	id := wire.NewMsgID()
	return &wire.Envelope{
		Kind: wire.KindAgent, ID: id, TTL: 7, Hops: 1, From: hopBase, To: hopPeer,
		Body:  agent.EncodePacket(&agent.Packet{Class: agent.KeywordClass, State: state, Base: hopBase, Mode: 1}),
		Trace: &wire.TraceContext{QueryID: id, Base: hopBase},
	}
}

// hopResults is one peer's answer in the paper's set-up: ten 1 KB objects —
// random bytes, as workload.Spec makes them (media-file stand-ins), or, as
// text, the kind of answer the paper GZIPs (§4.2).
func hopResults(text bool) []agent.Result {
	rng := rand.New(rand.NewSource(1))
	results := make([]agent.Result, 10)
	for i := range results {
		data := make([]byte, 1024)
		rng.Read(data)
		if text {
			data = []byte(base64.StdEncoding.EncodeToString(data))[:1024]
		}
		results[i] = agent.Result{Name: fmt.Sprintf("n3-object-%04d", i), Data: data}
	}
	return results
}

// hopResultFrame carries hopResults back to the base with the hop's span.
func hopResultFrame(text bool) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindResult, ID: wire.NewMsgID(), TTL: 1, From: hopPeer, To: hopBase,
		Body: agent.EncodeResults(hopResults(text), 2, wire.BPID{}, hopPeer),
		Span: &wire.TraceSpan{Peer: hopPeer, Parent: hopBase, Hop: 2, WaitNS: 120_000, ExecNS: 1_100_000, Matches: 10, FanOut: 3},
	}
}

// hopFrames are the frames of one query hop the budgets and benchmarks
// below run on.
func hopFrames(tb testing.TB) map[string]*wire.Envelope {
	return map[string]*wire.Envelope{"agent": hopAgentFrame(tb), "result-random": hopResultFrame(false), "result-text": hopResultFrame(true)}
}

// hopStore is the paper's per-node store, 1000 × 1 KB objects, behind the
// daemon's default 64-frame pool; indexed, it is what `bestpeer -index`
// opens, and keeps the keyword index tree beside the plan every store
// makes.
type hopStore struct {
	*storm.Store
	spec *workload.Spec
	path string
	opts storm.Options
}

func newHopStore(tb testing.TB, indexed bool) *hopStore {
	tb.Helper()
	h := populateHopStore(tb, filepath.Join(tb.TempDir(), "hop.storm"), 1000, indexed)
	tb.Cleanup(func() { h.Close() })
	return h
}

// populateHopStore fills a store at path with node 0 of the paper's
// workload grown to the given number of objects; the vocabulary grows with
// it, so a keyword still matches ≈ 10 of them, the paper's answers per
// peer. At 1000 objects it is workload.Default. The caller closes it.
func populateHopStore(tb testing.TB, path string, objects int, indexed bool) *hopStore {
	tb.Helper()
	spec := workload.Default(1)
	spec.ObjectsPerNode, spec.Vocabulary = objects, objects/10
	h := &hopStore{spec: spec, path: path, opts: storm.Options{BufferFrames: 64, PersistentIndex: indexed}}
	h.open(tb)
	if err := h.spec.Populate(0, h.Store); err != nil {
		tb.Fatal(err)
	}
	return h
}

func (h *hopStore) open(tb testing.TB) {
	tb.Helper()
	store, err := storm.Open(h.path, h.opts)
	if err != nil {
		tb.Fatal(err)
	}
	h.Store = store
}

// reopen closes the store and opens it again: an empty pool, and the plan
// Open builds — the first Match after a restart.
func (h *hopStore) reopen(tb testing.TB) {
	tb.Helper()
	if err := h.Close(); err != nil {
		tb.Fatal(err)
	}
	h.open(tb)
}

func TestAllocBudgetEnvelope(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	frames := hopFrames(t)
	for _, tc := range []struct {
		name           string
		gzip           bool
		encode, decode float64
	}{
		// Encode: the frame, grown once for the fields and again when
		// the extension encoded behind them overruns the room left (the
		// agent's trace context does); a deflated body, from the pooled
		// level-6 writer or the fixed-block kernel's stack buffer, is
		// copied over the raw one (it is kept only when shorter). Decode: the inflated
		// body if there is one (and, for a dynamic-Huffman block, the
		// link tables compress/flate builds; a fixed block, as every
		// frame under 256 B raw is, builds none), the envelope, From,
		// To, and the extension with its strings; Body is a view.
		{"agent", true, 2, 6},
		{"result-random", false, 1, 6}, // the probe stops it: stored both ways
		{"result-text", true, 1, 12},   // the probe lets it through; + the inflater's link tables
	} {
		env := frames[tc.name]
		frame, err := wire.EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		if wire.FrameCompressed(frame) != tc.gzip {
			t.Errorf("%s frame: compressed = %v, want %v", tc.name, !tc.gzip, tc.gzip)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = wire.EncodeEnvelope(env) }); got > tc.encode {
			t.Errorf("EncodeEnvelope(%s frame): %v allocs, budget %v", tc.name, got, tc.encode)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = wire.DecodeEnvelope(frame) }); got > tc.decode {
			t.Errorf("DecodeEnvelope(%s frame): %v allocs, budget %v", tc.name, got, tc.decode)
		}
	}
	// The executing hop's send side as core and the messenger run it:
	// the batch into a warm body, the envelope and its span extension
	// into a warm frame, which is the one EncodeEnvelope makes.
	results, send := hopResults(false), hopResultFrame(false)
	var warmBody, warmFrame []byte
	sendSide := func() {
		warmBody = agent.AppendResults(warmBody[:0], results, 2, wire.BPID{}, hopPeer)
		send.Body = warmBody
		warmFrame, _ = wire.AppendEnvelope(warmFrame[:0], send)
	}
	sendSide()
	if want, err := wire.EncodeEnvelope(send); err != nil || !bytes.Equal(warmFrame, want) {
		t.Fatalf("AppendEnvelope into a warm frame: %d bytes differ from EncodeEnvelope's %d (%v)", len(warmFrame), len(want), err)
	}
	if got := testing.AllocsPerRun(200, sendSide); got > 0 {
		t.Errorf("AppendResults + AppendEnvelope(result-random) into warm buffers: %v allocs, budget 0", got)
	}
	// Ten results: the batch, its address, the result slice, ten names;
	// each Data is a view of the body.
	body := frames["result-random"].Body
	if got := testing.AllocsPerRun(200, func() { _, _ = agent.DecodeResults(body) }); got > 13 {
		t.Errorf("DecodeResults(ten results): %v allocs, budget 13", got)
	}
}

// TestAllocBudgetCorruptFrame: a peer that sends corrupt gzip frames does
// not make each one build a fresh gzip.Reader (≈ 40 KB of inflater) — the
// pooled state goes back on the error returns too. What a bad frame may
// allocate is what a good one does: the output buffer, the inflater's
// link tables for a dynamic block, and its error.
func TestAllocBudgetCorruptFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	env := hopResultFrame(true)
	good, err := wire.EncodeEnvelope(env)
	if err != nil || !wire.FrameCompressed(good) {
		t.Fatalf("fixture: %v, compressed %v", err, wire.FrameCompressed(good))
	}
	corrupt := func(at int) []byte {
		frame := bytes.Clone(good)
		frame[at] ^= 0xFF
		return frame
	}
	const runs = 200
	for name, frame := range map[string][]byte{
		"bad gzip magic":      corrupt(5),             // fails in Reset
		"bad deflate stream":  corrupt(len(good) / 2), // fails in Read
		"bad trailing CRC-32": corrupt(len(good) - 8), // fails at end of stream
	} {
		if _, err := wire.DecodeEnvelope(frame); err == nil {
			t.Fatalf("%s: decoded", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { _, _ = wire.DecodeEnvelope(frame) })
		runtime.ReadMemStats(&after)
		perFrame := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if limit := uint64(len(env.Body) + 4<<10); allocs > 12 || perFrame > limit {
			t.Errorf("DecodeEnvelope(%s): %v allocs and %d B per frame, budget 12 and %d B", name, allocs, perFrame, limit)
		}
	}
}

func TestAllocBudgetMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// Every store plans its Match from memory, so a plain and an indexed
	// store pay the same. Per hit: the Object, its name, its keyword slice
	// and one keyword, and its data. Per call: the answer slice's growth,
	// ⌈log₂ hits⌉ + 1 reallocations — c = 6 covers 32 hits; the candidate
	// list is pooled, and the twin's lookup, the names' pass, the closures
	// and the pool's replacer allocate nothing. Nothing per object or page
	// stored. MatchInto with a warm arena (one an earlier match grew, then
	// emptied) copies the data into it: one allocation fewer per hit.
	for _, tc := range []struct {
		name            string
		indexed, arena  bool
		perHit, perCall int
	}{
		{"plain", false, false, 5, 6},
		{"indexed", true, false, 5, 6},
		{"plain-arena", false, true, 4, 6},
		{"indexed-arena", true, true, 4, 6},
	} {
		store := newHopStore(t, tc.indexed)
		for _, kw := range []string{store.spec.Keyword(7), "no-object-has-this"} {
			hits := store.spec.MatchCount(0, kw)
			var arena *[]byte
			if tc.arena {
				arena = new([]byte)
			}
			got := testing.AllocsPerRun(20, func() {
				if arena != nil {
					*arena = (*arena)[:0]
				}
				if m, err := store.MatchInto(kw, arena); err != nil || len(m) != hits {
					t.Fatalf("%s: MatchInto(%q) = %d objects, %v; want %d", tc.name, kw, len(m), err, hits)
				}
			})
			if budget := float64(hits*tc.perHit + tc.perCall); got > budget {
				t.Errorf("%s: MatchInto(%q) over 1000 objects: %v allocs, budget %d hits x %d + %d = %v", tc.name, kw, got, hits, tc.perHit, tc.perCall, budget)
			}
		}
	}

	// The first Match after open pays what any Match does, plus, measured
	// once, a candidate list if the pool of them is empty and whatever the
	// runtime allocates beside the call (16 covers them): Open built the
	// plan, so nothing is paid per page.
	store := newHopStore(t, false)
	store.reopen(t)
	kw := store.spec.Keyword(7)
	hits := store.spec.MatchCount(0, kw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := store.Match(kw)
	runtime.ReadMemStats(&after)
	if err != nil || len(m) != hits {
		t.Fatalf("first Match(%q) = %d objects, %v; want %d", kw, len(m), err, hits)
	}
	if got, budget := after.Mallocs-before.Mallocs, uint64(hits*5+6+16); got > budget {
		t.Errorf("first Match(%q) after open: %d allocs, budget %d hits x 5 + 6 + 16 = %d", kw, got, hits, budget)
	}

	// A writer beside the plan: Put a fresh name and Delete it, on an
	// indexed store. What the plan's folded names cost it is an append per
	// fresh name and, once stale entries outnumber live ones, a rebuild
	// into the same buffers — amortised nothing; what its twin costs is
	// the fresh keyword's list, bound and dropped again. The Delete takes
	// the record's posting keys from the twin's unbind and decodes
	// nothing. 3000 pairs on 1000 live objects rebuild the names twice.
	store = newHopStore(t, true)
	fresh := make([]*storm.Object, 3001)
	for i := range fresh {
		fresh[i] = &storm.Object{Name: fmt.Sprintf("fresh-%04d", i), Keywords: []string{"fresh"}, Data: make([]byte, 1024)}
	}
	next := 0
	got := testing.AllocsPerRun(len(fresh)-1, func() {
		o := fresh[next]
		next++
		if _, err := store.Put(o); err != nil {
			t.Fatal(err)
		}
		if err := store.Delete(o.Name); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 11.0; got > budget {
		t.Errorf("Put + Delete of a fresh name on an indexed store: %v allocs, budget %v", got, budget)
	}
}

// BenchmarkEnvelopeEncode encodes each hop frame into a fresh buffer
// (EncodeEnvelope) and, under <frame>-append, into a warm one as the
// messenger's pooled frames take it (AppendEnvelope).
func BenchmarkEnvelopeEncode(b *testing.B) {
	for name, env := range hopFrames(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.EncodeEnvelope(env); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"-append", func(b *testing.B) {
			var frame []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if frame, err = wire.AppendEnvelope(frame[:0], env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEnvelopeDecode(b *testing.B) {
	for name, env := range hopFrames(b) {
		frame, err := wire.EncodeEnvelope(env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeEnvelope(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreMatchCold is Store.Match as a peer runs it, at 1k, 10k and
// 100k objects (100k, a 100 MB store, not under -short): the store is 5 to
// 500 times the pool, so most of the pages of a query's hits come from the
// file. plain is a store with no tree beside the plan, warmed by one Match
// before the timer; plain-first is a restart: Open, which builds the
// plan, and the first Match, timed together (each iteration closes the
// store outside the timer); indexed a store that also keeps the keyword
// index tree. scan is the same query by MatchFunc, which reads every page
// through the pool, at 1k and 10k only. A store is populated once per size
// and kept across the runs that size b.N.
func BenchmarkStoreMatchCold(b *testing.B) {
	for _, tc := range []struct {
		name                  string
		indexed, reopen, scan bool
	}{{"plain", false, false, false}, {"plain-first", false, true, false}, {"indexed", true, false, false}, {"scan", false, false, true}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			for _, objects := range []int{1_000, 10_000, 100_000} {
				var store *hopStore
				b.Cleanup(func() {
					if store != nil {
						store.Close()
					}
				})
				b.Run(fmt.Sprintf("%dk", objects/1000), func(b *testing.B) {
					if objects > 10_000 && (testing.Short() || tc.scan) {
						b.Skip("a 100 MB store")
					}
					if store == nil {
						store = populateHopStore(b, filepath.Join(dir, fmt.Sprint(objects)), objects, tc.indexed)
					}
					if !tc.reopen {
						if _, err := store.Match(store.spec.Keyword(0)); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tc.reopen {
							b.StopTimer()
							if err := store.Close(); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
							store.open(b)
						}
						if tc.scan {
							q := store.spec.Keyword(i % 100)
							if _, err := store.MatchFunc(func(o *storm.Object) bool { return o.Matches(q) }); err != nil {
								b.Fatal(err)
							}
						} else if _, err := store.Match(store.spec.Keyword(i % 100)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
