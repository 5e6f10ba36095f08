package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeEnvelope: arbitrary bytes must never panic or allocate
// unboundedly, and every successfully decoded envelope must re-encode.
func FuzzDecodeEnvelope(f *testing.F) {
	good, _ := EncodeEnvelope(&Envelope{
		Kind: KindAgent, ID: NewMsgID(), TTL: 7, Hops: 1,
		From: "a:1", To: "b:2", Body: []byte("payload"),
	})
	f.Add(good)
	traced, _ := EncodeEnvelope(&Envelope{
		Kind: KindResult, ID: NewMsgID(), TTL: 3, Hops: 2,
		From: "b:2", To: "base:1", Body: []byte("answers"),
		Trace: &TraceContext{QueryID: NewMsgID(), Base: "base:1"},
		Span:  &TraceSpan{Peer: "b:2", Parent: "a:1", Hop: 2, WaitNS: 100, ExecNS: 2000, Matches: 1, FanOut: 3},
	})
	f.Add(traced)
	// New-encoder corpus: qroute provenance extension, alone and stacked
	// with the trace extensions.
	q := &QRoute{Via: "a:1", Cached: true, Epoch: 9}
	routed, _ := EncodeEnvelope(&Envelope{
		Kind: KindResult, ID: NewMsgID(), TTL: 3, Hops: 2,
		From: "b:2", To: "base:1", Body: []byte("answers"),
		QRoute: q,
	})
	f.Add(routed)
	stacked, _ := EncodeEnvelope(&Envelope{
		Kind: KindAgent, ID: NewMsgID(), TTL: 5, Hops: 1,
		From: "base:1", To: "a:1", Body: []byte("agent"),
		Trace:  &TraceContext{QueryID: NewMsgID(), Base: "base:1"},
		QRoute: &QRoute{Via: "a:1"},
	})
	f.Add(stacked)
	// Old-decoder/new-encoder corpus: the same qroute record under an
	// unassigned tag, which is how a pre-qroute decoder sees tag 3 —
	// the decoder must skip it and keep every legacy field.
	oldView := append([]byte(nil), routed...)
	if oldView[4] == 0 { // uncompressed: the qroute record is last
		oldView[len(oldView)-len(Marshal(q))-extHeaderSize] = 200
	}
	f.Add(oldView)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		re, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		back, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if back.Kind != env.Kind || back.ID != env.ID || !bytes.Equal(back.Body, env.Body) {
			t.Fatal("re-encode round trip changed the envelope")
		}
		if !reflect.DeepEqual(back.Trace, env.Trace) || !reflect.DeepEqual(back.Span, env.Span) {
			t.Fatal("re-encode round trip changed the trace extensions")
		}
		if !reflect.DeepEqual(back.QRoute, env.QRoute) {
			t.Fatal("re-encode round trip changed the qroute extension")
		}
	})
}

// FuzzEncodeEnvelope: for an arbitrary kind, body and set of extensions
// the frame round-trips through DecodeEnvelope and through readEnvelope,
// is never longer than header + raw, and is either the always-deflate
// reference's frame byte for byte (the probe let it through, or it is
// under the probe's floor) or the stored form of the same raw bytes (the
// probe stopped it). The body is the fuzzer's bytes repeated, then padded
// with seeded random bytes, so sizes either side of the floor and bodies
// of every mix of repetitive and incompressible are within reach.
func FuzzEncodeEnvelope(f *testing.F) {
	f.Add(uint8(KindAgent), []byte("payload"), uint8(0), uint16(0), "a:1", uint8(0))
	f.Add(uint8(KindResult), []byte("answers "), uint8(200), uint16(0), "127.0.0.1:54321", uint8(7))
	f.Add(uint8(KindResult), []byte{}, uint8(0), uint16(1400), "127.0.0.1:54321", uint8(2))
	f.Add(uint8(KindResult), []byte("n3-object-0004"), uint8(30), uint16(10<<10), "b:2", uint8(2))
	f.Add(uint8(KindClassShip), []byte("storm.keyword"), uint8(0), uint16(probeFloor), "b:2", uint8(4))
	f.Add(uint8(KindHint), bytes.Repeat([]byte{0}, compressionThreshold), uint8(7), uint16(0), "", uint8(1))
	f.Add(uint8(kindSentinel), []byte("x"), uint8(0), uint16(0), "", uint8(0))

	f.Fuzz(func(t *testing.T, kind uint8, seed []byte, repeat uint8, pad uint16, addr string, ext uint8) {
		if len(addr) > 1<<10 {
			addr = addr[:1<<10] // the envelope's length prefixes are 16 bits
		}
		body := bytes.Repeat(seed, 1+int(repeat))
		tail := make([]byte, pad)
		rand.New(rand.NewSource(int64(len(seed))<<16 | int64(pad))).Read(tail)
		e := &Envelope{Kind: Kind(kind), ID: MsgID{kind, repeat, ext}, TTL: 3, Hops: 1, From: addr, To: "base:1", Body: append(body, tail...)}
		if len(e.Body) == 0 {
			e.Body = nil // what an empty body decodes to
		}
		if ext&1 != 0 {
			e.Trace = &TraceContext{QueryID: e.ID, Base: addr}
		}
		if ext&2 != 0 {
			e.Span = &TraceSpan{Peer: addr, Parent: "base:1", Hop: 2, WaitNS: int64(pad), ExecNS: 2000, Matches: int(repeat), FanOut: 3}
		}
		if ext&4 != 0 {
			e.QRoute = &QRoute{Via: addr, Cached: ext&8 != 0, Epoch: uint64(pad)}
		}
		frame, err := EncodeEnvelope(e)
		if !e.Kind.Valid() {
			if err == nil {
				t.Fatalf("kind %d encoded", kind)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		raw := rawBody(e)
		if len(frame) > frameHeaderSize+len(raw) {
			t.Fatalf("a %d-byte frame for %d raw bytes", len(frame), len(raw))
		}
		if !bytes.Equal(frame, ReferenceEncode(e)) {
			if len(raw) < probeFloor {
				t.Fatalf("%d raw bytes, under the probe's floor, and the frame is not the reference's", len(raw))
			}
			if !bytes.Equal(frame, StoredFrame(raw)) {
				t.Fatal("the frame is neither the reference's nor the stored form of the raw bytes")
			}
		}
		decoded, err := DecodeEnvelope(frame)
		if err != nil || !reflect.DeepEqual(decoded, e) {
			t.Fatalf("DecodeEnvelope round trip: %v", err)
		}
		read, err := readEnvelope(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(read, e) {
			t.Fatalf("readEnvelope round trip: %v", err)
		}
	})
}

// FuzzDecoder: the payload decoder must survive arbitrary inputs.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.String("s")
	e.Uvarint(7)
	e.Bytes2([]byte{1, 2})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.String()
		_ = d.Uvarint()
		_ = d.Bytes2()
		_ = d.BPID()
		_ = d.Finish()
	})
}
