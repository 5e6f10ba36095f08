package wire_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"bestpeer/internal/agent"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

const (
	probeBase = "127.0.0.1:54321"
	probePeer = "127.0.0.1:54322"
)

// probeFrame encodes e and checks the codec's contract: the frame
// round-trips, is never longer than header + raw, and is either the
// stored form of the raw bytes or the deflated frame their size calls
// for — the small-frame kernel's (KernelEncode) from the compression
// threshold up to the fixed ceiling, the always-deflate reference's
// (ReferenceEncode) from there. It returns the frame and the reference's.
func probeFrame(t *testing.T, name string, e *wire.Envelope) (frame, ref []byte) {
	t.Helper()
	frame, err := wire.EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw := wire.RawBody(e)
	ref = wire.ReferenceEncode(e)
	want := ref
	if len(raw) >= wire.CompressionThreshold && len(raw) < wire.FixedCeiling {
		want = wire.KernelEncode(e)
	}
	stored := wire.StoredFrame(raw)
	if !bytes.Equal(frame, want) && !bytes.Equal(frame, stored) {
		t.Fatalf("%s: the frame (%d B) is neither the deflated one its size calls for (%d B) nor the stored form (%d B)", name, len(frame), len(want), len(stored))
	}
	if len(frame) > len(stored) {
		t.Fatalf("%s: a %d-byte frame for %d raw bytes", name, len(frame), len(raw))
	}
	if wire.FrameCompressed(frame) == bytes.Equal(frame, stored) {
		t.Fatalf("%s: the flag byte disagrees with the frame's form", name)
	}
	back, err := wire.DecodeEnvelope(frame)
	if err != nil || !reflect.DeepEqual(back, e) {
		t.Fatalf("%s: does not round-trip (%v)", name, err)
	}
	return frame, ref
}

func resultEnvelope(body []byte) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindResult, ID: wire.MsgID{1, 2, 3}, TTL: 1, Hops: 2, From: probePeer, To: probeBase, Body: body,
		Span: &wire.TraceSpan{Peer: probePeer, Parent: probeBase, Hop: 2, WaitNS: 120_000, ExecNS: 1_100_000, Matches: 10, FanOut: 3},
	}
}

// specResults is what node's keyword agent answers for kw under spec, with
// the objects' data (mode 1) or their names only (mode 2 hints).
func specResults(spec *workload.Spec, node int, kw string, hints bool) []agent.Result {
	var out []agent.Result
	for _, obj := range spec.Objects(node) {
		if obj.Matches(kw) {
			r := agent.Result{Name: obj.Name, Data: obj.Data}
			if hints {
				r.Data = nil
			}
			out = append(out, r)
		}
	}
	return out
}

// TestProbeCorpus: what the tree's traffic is made of travels as the
// always-deflate reference would send it or within 3 % of that, and the
// probe decides the way DESIGN.md §4 says it does.
func TestProbeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	source, err := os.ReadFile("codec.go")
	if err != nil {
		t.Fatal(err)
	}
	source = source[:10<<10]
	type journalLine struct {
		Seq   int    `json:"seq"`
		Kind  string `json:"kind"`
		Query string `json:"query"`
		Peer  string `json:"peer"`
		Hops  int    `json:"hops"`
	}
	var lines []journalLine
	for i := 0; i < 120; i++ {
		lines = append(lines, journalLine{i, "agent-answered", fmt.Sprintf("%032x", rng.Uint64()), fmt.Sprintf("127.0.0.1:%d", 7000+i%16), 1 + i%5})
	}
	journal, err := json.Marshal(lines)
	if err != nil {
		t.Fatal(err)
	}

	const (
		stored = iota // the probe must stop it: header + raw, flag clear
		gzip          // the probe must let it through: the reference's gzip frame
		either        // documented as going either way
	)
	type entry struct {
		name string
		env  *wire.Envelope
		want int
	}
	var corpus []entry
	add := func(want int, name string, env *wire.Envelope) { corpus = append(corpus, entry{name, env, want}) }

	spec := workload.Default(1)
	for node := 0; node < 4; node++ {
		for _, k := range []int{7, 40} {
			results := specResults(spec, node, spec.Keyword(k), false)
			if len(results) == 0 {
				t.Fatalf("node %d holds nothing under %s", node, spec.Keyword(k))
			}
			add(stored, fmt.Sprintf("workload.Spec result batch n%d/%s (%d objects)", node, spec.Keyword(k), len(results)),
				resultEnvelope(agent.EncodeResults(results, 2, wire.BPID{LIGLO: "127.0.0.1:7100", Node: uint64(node)}, probePeer)))
		}
	}
	// The names alone of what ten keywords match at one node: a hint
	// batch large enough to meet the probe.
	var hints []agent.Result
	for k := 0; k < 10; k++ {
		hints = append(hints, specResults(spec, 3, spec.Keyword(k), true)...)
	}
	hintEnv := resultEnvelope(agent.EncodeResults(hints, 2, wire.BPID{}, probePeer))
	hintEnv.Kind = wire.KindHint
	if len(hintEnv.Body) < wire.ProbeFloor {
		t.Fatalf("the hint batch (%d B) does not reach the probe", len(hintEnv.Body))
	}
	add(gzip, "name-only hint batch", hintEnv)

	for _, f := range []agent.Factory{agent.NewKeywordFactory(), agent.NewFilterFactory(), agent.NewDigestFactory(), agent.NewTopKFactory()} {
		var ship wire.Encoder // core's class-ship body: class name, code
		ship.String(f.Class())
		ship.Bytes2(f.Code())
		add(stored, "class-ship "+f.Class(), &wire.Envelope{Kind: wire.KindClassShip, ID: wire.MsgID{9}, TTL: 1, From: probeBase, To: probePeer, Body: ship.Bytes()})
	}
	for _, n := range []int{1 << 10, 1400, 10 << 10, 1 << 20} {
		add(stored, fmt.Sprintf("random %d B", n), resultEnvelope(random(n)))
	}
	add(gzip, "Go source", resultEnvelope(source))
	add(gzip, "JSON", resultEnvelope(journal))
	add(gzip, "base64 text", resultEnvelope([]byte(base64.StdEncoding.EncodeToString(random(6<<10)))))
	add(gzip, "all-zero body", resultEnvelope(make([]byte, 10<<10)))
	add(gzip, "half text, half random", resultEnvelope(append(append([]byte(nil), source[:5<<10]...), random(5<<10)...)))
	add(either, "a tenth text, the rest random", resultEnvelope(append(append([]byte(nil), source[:1<<10]...), random(9<<10)...)))

	for _, c := range corpus {
		frame, ref := probeFrame(t, c.name, c.env)
		switch compressed := wire.FrameCompressed(frame); {
		case c.want == stored && compressed:
			t.Errorf("%s: deflated, want stored", c.name)
		case c.want == gzip && !compressed:
			t.Errorf("%s: stored, want the reference's gzip frame (%d B against %d B raw)", c.name, len(ref), len(frame))
		}
		t.Logf("%-56s raw %7d B, frame %7d B, reference %7d B", c.name, len(wire.RawBody(c.env)), len(frame), len(ref))
		if over := float64(len(frame))/float64(len(ref)) - 1; over > 0.03 {
			t.Errorf("%s: %d B, %.1f %% over the reference's %d B", c.name, len(frame), 100*over, len(ref))
		}
	}
}

// TestProbeSizes: under compressionThreshold nothing is deflated, however
// well it would compress; from there to the fixed ceiling every body that
// shrinks is the small-frame kernel's; from the ceiling to probeFloor-1
// every body is the reference's, whatever the probe would say; from
// probeFloor the probe decides. The fixture at the floor is one the probe
// and deflate disagree on — every byte value equally often, in order: a
// flat histogram made of plain repeats — cut to make the raw envelope
// exactly the size under test.
func TestProbeSizes(t *testing.T) {
	zeros := make([]byte, wire.ProbeFloor)
	flat := make([]byte, wire.ProbeFloor)
	for i := range flat {
		flat[i] = byte(i)
	}
	for _, tc := range []struct {
		rawSize    int
		fill       []byte
		compressed bool
	}{
		{wire.CompressionThreshold - 1, zeros, false},
		{wire.CompressionThreshold, zeros, true},
		{wire.FixedCeiling - 1, zeros, true},
		{wire.FixedCeiling, zeros, true},
		{wire.ProbeFloor - 1, flat, true},
		{wire.ProbeFloor, flat, false},
	} {
		env := &wire.Envelope{Kind: wire.KindResult, ID: wire.MsgID{5}, TTL: 1, From: "a:1", To: "b:2"}
		env.Body = tc.fill[:tc.rawSize-len(wire.RawBody(env))]
		if got := len(wire.RawBody(env)); got != tc.rawSize {
			t.Fatalf("fixture is %d bytes raw, want %d", got, tc.rawSize)
		}
		frame, ref := probeFrame(t, fmt.Sprint(tc.rawSize, " B raw"), env)
		if wire.FrameCompressed(frame) != tc.compressed {
			t.Errorf("%d B raw: compressed = %v, want %v", tc.rawSize, !tc.compressed, tc.compressed)
		}
		switch {
		case tc.rawSize < wire.CompressionThreshold:
		case tc.rawSize < wire.FixedCeiling:
			if !bytes.Equal(frame, wire.KernelEncode(env)) || bytes.Equal(frame, ref) {
				t.Errorf("%d B raw: a frame under the fixed ceiling is not the kernel's", tc.rawSize)
			}
		case tc.rawSize < wire.ProbeFloor:
			if !bytes.Equal(frame, ref) {
				t.Errorf("%d B raw: a frame from the fixed ceiling to the probe's floor differs from the reference's", tc.rawSize)
			}
		}
	}
}

// proseFixture is English prose, the kind of body the fixed-Huffman
// block fits worst: its letters are skewed, and it repeats few strings
// within a couple of hundred bytes.
const proseFixture = "BestPeer is a generic peer-to-peer platform. Queries are carried " +
	"by mobile agents that execute at the site of each peer; an agent is cloned and " +
	"forwarded to all direct peers in parallel, its lifetime bounded by a time to live, " +
	"and duplicate agents are dropped. Answers return directly to the node that asked, " +
	"not along the path the query took. After each query a node ranks the peers it saw " +
	"answers from and keeps the best of them as its direct neighbours, so that the next " +
	"query reaches what it wants in fewer hops. Location-independent global names let a " +
	"node that rejoins with another address keep its identity."

// TestFixedBlockProseCost pins the known cost of the fixed ceiling. A
// fixed-Huffman block cannot adapt its codes to skewed text, so a prose
// body just under the ceiling comes out larger than level 6 would make
// it — 12 % on average from 200 B, 16 % at worst; at 256 B and up level 6
// takes over. Agent frames (JSON-like state,
// addresses, ids) come out smaller than level 6's instead. If the worst
// ratio here leaves its documented band, the ceiling wants measuring
// again (DESIGN.md §4), and this test is where that shows.
func TestFixedBlockProseCost(t *testing.T) {
	worst, sum, frames := 0.0, 0.0, 0
	for size := 200; size < wire.FixedCeiling; size++ {
		for offset := 0; offset+size <= len(proseFixture); offset += 61 {
			env := &wire.Envelope{Kind: wire.KindResult, ID: wire.MsgID{7}, TTL: 1, From: "a:1", To: "b:2"}
			env.Body = []byte(proseFixture[offset:][:size-len(wire.RawBody(env))])
			frame, ref := probeFrame(t, fmt.Sprintf("%d B of prose at %d", size, offset), env)
			ratio := float64(len(frame)) / float64(len(ref))
			worst, sum, frames = max(worst, ratio), sum+ratio, frames+1
		}
	}
	t.Logf("prose frames of 200-255 B raw against level 6: mean %.3f, worst %.3f of %d", sum/float64(frames), worst, frames)
	if mean := sum / float64(frames); mean < 1.08 || mean > 1.16 || worst > 1.20 {
		t.Fatalf("prose frames are %.3f of level 6's on average, %.3f at worst; the documented figures are 1.12 and 1.16", mean, worst)
	}
}

// TestProbeBlindSpot pins the one known miss. The probe reads a byte
// histogram; deflate also finds repeats. A body whose histogram is flat
// but which repeats itself — here the same random 1 KB object ten times
// in one batch — would deflate to about an eighth and is sent stored. It
// costs bytes, never correctness: the frame is valid and round-trips. No
// workload, example or test in the tree produces such a body (a result
// batch holds distinct objects); if one ever does, the probe wants a
// repeat check, and this test is where that shows.
func TestProbeBlindSpot(t *testing.T) {
	object := make([]byte, 1<<10)
	rand.New(rand.NewSource(3)).Read(object)
	results := make([]agent.Result, 10)
	for i := range results {
		results[i] = agent.Result{Name: fmt.Sprintf("copy-%d", i), Data: object}
	}
	frame, ref := probeFrame(t, "ten copies of one object", resultEnvelope(agent.EncodeResults(results, 1, wire.BPID{}, probePeer)))
	if wire.FrameCompressed(frame) {
		t.Fatal("the probe let the repeated body through: the blind spot is gone — update DESIGN.md §4 and this test")
	}
	if ratio := float64(len(ref)) / float64(len(frame)); ratio < 0.10 || ratio > 0.15 {
		t.Fatalf("the reference deflates the repeated body to %.3f of the stored frame; the documented figure is 0.115", ratio)
	}
}
