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

// probeFrame encodes e and checks the probe's contract against the
// always-deflate reference: the frame round-trips, is either the
// reference's frame byte for byte or the stored form of the same raw
// bytes, and is never longer than header + raw. It returns the frame and
// the reference's.
func probeFrame(t *testing.T, name string, e *wire.Envelope) (frame, ref []byte) {
	t.Helper()
	frame, err := wire.EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref = wire.ReferenceEncode(e)
	stored := wire.StoredFrame(wire.RawBody(e))
	if !bytes.Equal(frame, ref) && !bytes.Equal(frame, stored) {
		t.Fatalf("%s: the frame (%d B) is neither the reference's (%d B) nor the stored form (%d B)", name, len(frame), len(ref), len(stored))
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
// well it would compress; from there to probeFloor-1 every body is,
// whatever the probe would say; from probeFloor the probe decides. The
// fixture at the floor is one the probe and deflate disagree on — every
// byte value equally often, in order: a flat histogram made of plain
// repeats — cut to make the raw envelope exactly the size under test.
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
		if tc.rawSize < wire.ProbeFloor && !bytes.Equal(frame, ref) {
			t.Errorf("%d B raw: a frame under the probe's floor differs from the reference's", tc.rawSize)
		}
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
