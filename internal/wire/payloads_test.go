package wire_test

import (
	"testing"

	"bestpeer/internal/wire"
	"bestpeer/internal/wire/wiretest"
)

// messages is every envelope extension with every field populated.
func messages() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("tracecontext", 0, &wire.TraceContext{QueryID: wire.MsgID{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, Base: "base:1"}),
		wiretest.Of("tracespan", 0, &wire.TraceSpan{Peer: "b:2", Parent: "a:1", Hop: 2, WaitNS: 100, ExecNS: 2000, Matches: 1, FanOut: 3, Drop: "expired"}),
		wiretest.Of("qroute", 0, &wire.QRoute{Via: "a:1", Cached: true, Epoch: 9}),
	}
}

// extensionSeeds are the committed corpus inputs under
// testdata/fuzz/FuzzDecodeEnvelope: one whole frame per extension tag.
func extensionSeeds(t *testing.T) map[string][]byte {
	id := wire.MsgID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	trace := &wire.TraceContext{QueryID: wire.MsgID{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, Base: "base:1"}
	seeds := make(map[string][]byte)
	for name, env := range map[string]*wire.Envelope{
		"tracecontext-v1": {Kind: wire.KindAgent, ID: id, TTL: 7, Hops: 1, From: "base:1", To: "a:1", Body: []byte("agent"), Trace: trace},
		"tracespan-v1": {Kind: wire.KindResult, ID: id, TTL: 3, Hops: 2, From: "b:2", To: "base:1", Body: []byte("answers"), Trace: trace,
			Span: &wire.TraceSpan{Peer: "b:2", Parent: "a:1", Hop: 2, WaitNS: 100, ExecNS: 2000, Matches: 1, FanOut: 3}},
		"qroute-v1": {Kind: wire.KindResult, ID: id, TTL: 3, Hops: 2, From: "b:2", To: "base:1", Body: []byte("answers"),
			QRoute: &wire.QRoute{Via: "a:1", Cached: true, Epoch: 9}},
	} {
		frame, err := wire.EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = frame
	}
	return seeds
}

// TestPayloadsGolden: the bytes of every extension payload and of every
// committed corpus seed are what this build encodes.
func TestPayloadsGolden(t *testing.T) {
	wiretest.Golden(t, messages())
	wiretest.Corpus(t, "FuzzDecodeEnvelope", extensionSeeds(t))
}

func TestExtensionsRoundTrip(t *testing.T) { wiretest.RoundTrip(t, messages()) }

func TestHostileCounts(t *testing.T) { wiretest.Hostile(t, messages(), wire.Unmarshal, nil) }

func FuzzExtensions(f *testing.F) { wiretest.Fuzz(f, messages()) }
