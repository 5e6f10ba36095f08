package bestpeer

// The allocation budget of one query hop (ROADMAP aim 1c), as exact
// counts rather than timings: the codec on the two frames the paper's
// workload sends — the keyword agent going out, ten 1 KB results coming
// back — and the store scan between them. `make perfcheck` runs these
// and the benchmarks below; a count that rises fails the build.

import (
	"fmt"
	"math/rand"
	"path/filepath"
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

// hopResults is one peer's answer in the paper's set-up: ten 1 KB objects.
func hopResults() []agent.Result {
	rng := rand.New(rand.NewSource(1))
	results := make([]agent.Result, 10)
	for i := range results {
		data := make([]byte, 1024)
		rng.Read(data)
		results[i] = agent.Result{Name: fmt.Sprintf("n3-object-%04d", i), Data: data}
	}
	return results
}

// hopResultFrame carries hopResults back to the base with the hop's span.
func hopResultFrame() *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindResult, ID: wire.NewMsgID(), TTL: 1, From: hopPeer, To: hopBase,
		Body: agent.EncodeResults(hopResults(), 2, wire.BPID{}, hopPeer),
		Span: &wire.TraceSpan{Peer: hopPeer, Parent: hopBase, Hop: 2, WaitNS: 120_000, ExecNS: 1_100_000, Matches: 10, FanOut: 3},
	}
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
	for _, tc := range []struct {
		name           string
		env            *wire.Envelope
		encode, decode float64
	}{
		// Encode: the extension's encoder (it grows once or twice more
		// for a span than for a trace context), the body behind its
		// header, the kept compressed frame. Decode: the inflated body,
		// the envelope, From, To, Body, and the extension with its
		// strings.
		{"agent", hopAgentFrame(t), 4, 7},
		{"result", hopResultFrame(), 6, 10},
	} {
		frame, err := wire.EncodeEnvelope(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = wire.EncodeEnvelope(tc.env) }); got > tc.encode {
			t.Errorf("EncodeEnvelope(%s frame): %v allocs, budget %v", tc.name, got, tc.encode)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = wire.DecodeEnvelope(frame) }); got > tc.decode {
			t.Errorf("DecodeEnvelope(%s frame): %v allocs, budget %v", tc.name, got, tc.decode)
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
	for name, env := range map[string]*wire.Envelope{"agent": hopAgentFrame(b), "result": hopResultFrame()} {
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
	for name, env := range map[string]*wire.Envelope{"agent": hopAgentFrame(b), "result": hopResultFrame()} {
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
