package bench

import (
	"testing"

	"bestpeer/internal/agent"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

// TestModelMeetsCodec holds the simulator's treatment of compression
// (CostModel.compression applies to agents, queries and name lists;
// "object payloads are random data and do not compress") against what the
// real codec does with the same three messages built from workload.Spec.
// The model constants are not touched here: the ratios are logged, and
// recorded in EXPERIMENTS.md beside Compression = 0.55 and ablation A2.
func TestModelMeetsCodec(t *testing.T) {
	const base, peer = "127.0.0.1:54321", "127.0.0.1:54322"
	spec := workload.Default(1)
	kw := spec.Keyword(7)
	var results, names []agent.Result
	for _, obj := range spec.Objects(3) {
		if obj.Matches(kw) {
			results = append(results, agent.Result{Name: obj.Name, Data: obj.Data})
		}
	}
	if len(results) == 0 {
		t.Fatalf("node 3 holds nothing under %s", kw)
	}
	for _, k := range []int{7, 8, 9, 10} { // a hint batch: names only, of a few keywords' matches
		for _, obj := range spec.Objects(3) {
			if obj.Matches(spec.Keyword(k)) {
				names = append(names, agent.Result{Name: obj.Name})
			}
		}
	}
	state, err := (&agent.KeywordAgent{Query: kw}).State()
	if err != nil {
		t.Fatal(err)
	}
	id := wire.MsgID{18}
	ratio := func(e *wire.Envelope) float64 {
		t.Helper()
		frame, err := wire.EncodeEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		return float64(len(frame)) / float64(e.WireSize())
	}
	payload := ratio(&wire.Envelope{Kind: wire.KindResult, ID: id, TTL: 1, Hops: 2, From: peer, To: base,
		Body: agent.EncodeResults(results, 2, wire.BPID{}, peer)})
	agentFrame := ratio(&wire.Envelope{Kind: wire.KindAgent, ID: id, TTL: 7, Hops: 1, From: base, To: peer,
		Body:  agent.EncodePacket(&agent.Packet{Class: agent.KeywordClass, State: state, Base: base, Mode: 1}),
		Trace: &wire.TraceContext{QueryID: id, Base: base}})
	hints := ratio(&wire.Envelope{Kind: wire.KindHint, ID: id, TTL: 1, Hops: 2, From: peer, To: base,
		Body: agent.EncodeResults(names, 2, wire.BPID{}, peer)})

	model := DefaultCost().compression
	t.Logf("frame bytes / raw bytes: result batch (%d x %d B objects) %.3f, keyword-agent frame %.3f, hint batch (%d names) %.3f; costModel.Compression %.2f",
		len(results), spec.ObjectSize, payload, agentFrame, len(names), hints, model)
	if payload < 0.99 {
		t.Errorf("a workload.Spec result batch leaves the codec at %.3f of raw: the model says object payloads do not compress", payload)
	}
	if agentFrame >= 1 || hints >= 1 {
		t.Errorf("agent frame %.3f, hint batch %.3f of raw: the model compresses both", agentFrame, hints)
	}
}
