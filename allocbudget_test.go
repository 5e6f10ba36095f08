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
// opens, and Match plans instead of walking.
func hopStore(tb testing.TB, indexed bool) (*storm.Store, *workload.Spec) {
	tb.Helper()
	store, err := storm.Open(filepath.Join(tb.TempDir(), "hop.storm"), storm.Options{BufferFrames: 64, PersistentIndex: indexed})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	spec := workload.Default(1)
	if err := spec.Populate(0, store); err != nil {
		tb.Fatal(err)
	}
	return store, spec
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
		// Encode: the extension's encoder (it grows once or twice more
		// for a span than for a trace context), the body behind its
		// header, and for a frame that deflates the kept compressed
		// frame. Decode: the inflated body if there is one (and, for a
		// dynamic-Huffman block, the link tables compress/flate builds),
		// the envelope, From, To, and the extension with its strings;
		// Body is a view.
		{"agent", true, 4, 6},
		{"result-random", false, 5, 6}, // the probe stops it: stored both ways
		{"result-text", true, 6, 12},   // the probe lets it through; + the inflater's link tables
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
	// Per hit: the Object, its name, its keyword slice and one keyword,
	// its data, and the answer slice's amortised growth; the plan adds the
	// candidate list's growth and a replacer list node for the hit's page.
	// Per scan: one replacer list node per resident page (at most the
	// pool's frames), the page-list snapshot, two closures. Per plan: the
	// posting range's two bounds, two closures, the tree pages' list
	// nodes. Nothing per object stored, scanned or planned over.
	for _, tc := range []struct {
		name            string
		indexed         bool
		perHit, perCall int
	}{
		{"scan", false, 6, 64 + 8},
		{"plan", true, 7, 8},
	} {
		store, spec := hopStore(t, tc.indexed)
		for _, kw := range []string{spec.Keyword(7), "no-object-has-this"} {
			hits := spec.MatchCount(0, kw)
			got := testing.AllocsPerRun(20, func() {
				if m, err := store.Match(kw); err != nil || len(m) != hits {
					t.Fatalf("%s: Match(%q) = %d objects, %v; want %d", tc.name, kw, len(m), err, hits)
				}
			})
			if budget := float64(hits*tc.perHit + tc.perCall); got > budget {
				t.Errorf("%s: Match(%q) over 1000 objects: %v allocs, budget %d hits x %d + %d = %v", tc.name, kw, got, hits, tc.perHit, tc.perCall, budget)
			}
		}
	}
}

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

// BenchmarkStoreMatchCold is Store.Match as a peer runs it: the store is
// five times the pool, so most pages come from the file — every page for
// the scan, the hits' pages for the plan an indexed store makes.
func BenchmarkStoreMatchCold(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "plan"
		}
		b.Run(name, func(b *testing.B) {
			store, spec := hopStore(b, indexed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Match(spec.Keyword(i % 100)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
