package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// rawBody is the envelope's body as EncodeEnvelope lays it out, before
// framing and compression.
func rawBody(e *Envelope) []byte {
	raw, _ := encodeBody(nil, e)
	return raw
}

// appendExt writes one (tag | length | payload) extension record, as an
// encoder of any version may.
func appendExt(buf []byte, tag uint8, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(payload)))
	return append(buf, payload...)
}

func sampleEnvelope() *Envelope {
	return &Envelope{
		Kind: KindAgent,
		ID:   NewMsgID(),
		TTL:  7,
		Hops: 2,
		From: "node-a:4001",
		To:   "node-b:4002",
		Body: []byte("hello, peers"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := sampleEnvelope()
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round trip mismatch:\n have %+v\n want %+v", got, e)
	}
}

func TestEncodeDecodeEmptyBody(t *testing.T) {
	e := &Envelope{Kind: KindPeerProbe, ID: NewMsgID(), TTL: 1}
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Body != nil {
		t.Fatalf("expected nil body, got %q", got.Body)
	}
	if got.Kind != KindPeerProbe || got.TTL != 1 || got.Hops != 0 {
		t.Fatalf("fields corrupted: %+v", got)
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	if _, err := EncodeEnvelope(&Envelope{Kind: kindInvalid}); err == nil {
		t.Fatal("expected error for invalid kind")
	}
	if _, err := EncodeEnvelope(&Envelope{Kind: kindSentinel}); err == nil {
		t.Fatal("expected error for out-of-range kind")
	}
}

func TestLargeBodyIsCompressed(t *testing.T) {
	e := sampleEnvelope()
	e.Body = bytes.Repeat([]byte("abcdefgh"), 4096) // highly compressible
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(frame) >= len(e.Body) {
		t.Fatalf("compressible body not compressed: frame=%d body=%d", len(frame), len(e.Body))
	}
	if frame[4]&flagGzip == 0 {
		t.Fatal("gzip flag not set on large frame")
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got.Body, e.Body) {
		t.Fatal("compressed round trip corrupted body")
	}
}

// TestPutBufferZeroesWholeCapacity: a compressed frame is cut short over
// the raw body it was encoded from; once the buffer is back in the pool
// none of that body is left behind the frame's end. The buffer is filled
// as Messenger.Send fills one, and read after it went back only because
// nothing else in this package takes from the pool.
func TestPutBufferZeroesWholeCapacity(t *testing.T) {
	for _, body := range [][]byte{
		bytes.Repeat([]byte("ab"), 80),         // fixed-Huffman size class
		bytes.Repeat([]byte("abcdefgh"), 1024), // level-6 deflate
	} {
		e := sampleEnvelope()
		e.Body = body
		b := GetBuffer()
		frame, err := AppendEnvelope(*b, e)
		if err != nil {
			t.Fatal(err)
		}
		if !FrameCompressed(frame) || len(frame) >= len(body) {
			t.Fatalf("%d-byte body: frame of %d bytes not compressed", len(body), len(frame))
		}
		*b = frame
		PutBuffer(b)
		if i := bytes.IndexFunc((*b)[:cap(*b)], func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("%d-byte body: pooled buffer holds a nonzero byte at %d of cap %d", len(body), i, cap(*b))
		}
	}
}

func TestIncompressibleBodyStaysStored(t *testing.T) {
	e := sampleEnvelope()
	body := make([]byte, 8192)
	rng := rand.New(rand.NewSource(1))
	rng.Read(body)
	e.Body = body
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if frame[4]&flagGzip != 0 {
		t.Fatal("random body should not carry the gzip flag")
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatal("stored round trip corrupted body")
	}
}

func TestSmallFrameSkipsCompression(t *testing.T) {
	e := &Envelope{Kind: KindPeerProbe, ID: NewMsgID(), TTL: 3, Body: []byte("ok")}
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if frame[4]&flagGzip != 0 {
		t.Fatal("tiny frame should not be gzipped")
	}
}

func TestDecodeRejectsTruncatedFrames(t *testing.T) {
	frame, err := EncodeEnvelope(sampleEnvelope())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeEnvelope(frame[:cut]); err == nil {
			t.Fatalf("decode accepted frame truncated to %d bytes", cut)
		}
	}
}

func TestDecodeRejectsOversizeDeclaredLength(t *testing.T) {
	frame := make([]byte, 16)
	binary.BigEndian.PutUint32(frame, MaxFrameSize+1)
	if _, err := DecodeEnvelope(frame); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("want errFrameTooLarge, got %v", err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	frame, err := EncodeEnvelope(sampleEnvelope())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeEnvelope(append(frame, 0xFF)); err == nil {
		t.Fatal("decode accepted frame with trailing byte")
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	want := []*Envelope{
		sampleEnvelope(),
		{Kind: KindResult, ID: NewMsgID(), TTL: 1, Hops: 4, From: "x", To: "y", Body: []byte("r")},
		{Kind: KindLigloRegister, ID: NewMsgID(), TTL: 1},
	}
	w := NewConn(&buf)
	for _, e := range want {
		if err := w.Send(e); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, w := range want {
		got, err := readEnvelope(&buf, new([frameHeaderSize]byte))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("stream message %d mismatch:\n have %+v\n want %+v", i, got, w)
		}
	}
	if _, err := readEnvelope(&buf, new([frameHeaderSize]byte)); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestConnSendRecv(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	e := sampleEnvelope()
	if err := c.Send(e); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("conn round trip mismatch")
	}
}

func TestForwardedAdjustsCounters(t *testing.T) {
	e := sampleEnvelope()
	f := e.Forwarded("b", "c")
	if f.TTL != e.TTL-1 || f.Hops != e.Hops+1 {
		t.Fatalf("forwarded counters wrong: %+v", f)
	}
	if f.From != "b" || f.To != "c" {
		t.Fatalf("forwarded addresses wrong: %+v", f)
	}
	if e.TTL != 7 || e.Hops != 2 {
		t.Fatal("Forwarded mutated the original")
	}
	// TTL saturates at zero.
	z := &Envelope{Kind: KindAgent, TTL: 0}
	if got := z.Forwarded("a", "b"); got.TTL != 0 {
		t.Fatalf("TTL should saturate at 0, got %d", got.TTL)
	}
	if !z.Expired() {
		t.Fatal("zero-TTL envelope should be expired")
	}
}

func TestKindString(t *testing.T) {
	if KindAgent.String() != "agent" {
		t.Fatalf("KindAgent.String() = %q", KindAgent.String())
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Fatalf("unknown kind string = %q", Kind(200).String())
	}
	for k := KindAgent; k < kindSentinel; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if !k.Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
	}
	if kindInvalid.Valid() {
		t.Fatal("kindInvalid must not be valid")
	}
}

func TestNewMsgIDUnique(t *testing.T) {
	seen := make(map[MsgID]bool)
	for i := 0; i < 1000; i++ {
		id := NewMsgID()
		if id == (MsgID{}) {
			t.Fatal("NewMsgID returned zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate MsgID after %d draws", i)
		}
		seen[id] = true
	}
}

func TestBPIDString(t *testing.T) {
	b := BPID{LIGLO: "liglo-1:9000", Node: 42}
	if b.String() != "liglo-1:9000/42" {
		t.Fatalf("BPID.String() = %q", b.String())
	}
	if b.IsZero() {
		t.Fatal("assigned BPID reported zero")
	}
	if !(BPID{}).IsZero() {
		t.Fatal("zero BPID not reported zero")
	}
}

// Property: every envelope with valid kind round-trips exactly.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(kindSeed uint8, ttl, hops uint8, from, to string, body []byte) bool {
		kind := Kind(kindSeed%uint8(kindSentinel-1)) + 1
		if len(from) > 1<<10 {
			from = from[:1<<10]
		}
		if len(to) > 1<<10 {
			to = to[:1<<10]
		}
		e := &Envelope{Kind: kind, ID: NewMsgID(), TTL: ttl, Hops: hops, From: from, To: to, Body: body}
		frame, err := EncodeEnvelope(e)
		if err != nil {
			return false
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			return false
		}
		if len(body) == 0 {
			// decoder normalizes empty body to nil
			return got.Kind == e.Kind && got.ID == e.ID && got.TTL == ttl &&
				got.Hops == hops && got.From == from && got.To == to && len(got.Body) == 0
		}
		return reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeMatchesEncodedOrder(t *testing.T) {
	e := sampleEnvelope()
	if got, want := e.WireSize(), envelopeHeaderSize+len(e.From)+len(e.To)+len(e.Body); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
	e.Trace = &TraceContext{QueryID: NewMsgID(), Base: "base:1"}
	e.Span = &TraceSpan{Peer: "p:2", Hop: 3}
	e.QRoute = &QRoute{Via: "n:3", Cached: true, Epoch: 42}
	if got, want := e.WireSize(), len(rawBody(e)); got != want {
		t.Fatalf("WireSize with extensions = %d, encoded body = %d", got, want)
	}
}

// --- trace extension coverage ---

func sampleTracedEnvelope() *Envelope {
	e := sampleEnvelope()
	e.Trace = &TraceContext{QueryID: NewMsgID(), Base: "base-node:4000"}
	e.Span = &TraceSpan{
		Peer: "node-b:4002", Parent: "node-a:4001", Hop: 2,
		WaitNS: 1500, ExecNS: 420000, Matches: 3, FanOut: 4,
	}
	return e
}

func TestTraceRoundTrip(t *testing.T) {
	e := sampleTracedEnvelope()
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("traced round trip mismatch:\n have %+v\n want %+v", got, e)
	}
	// Trace-only and span-only envelopes round-trip too.
	e = sampleEnvelope()
	e.Trace = &TraceContext{QueryID: NewMsgID(), Base: "b:1"}
	frame, _ = EncodeEnvelope(e)
	if got, _ = DecodeEnvelope(frame); !reflect.DeepEqual(e, got) {
		t.Fatalf("trace-only mismatch: %+v", got)
	}
	e = sampleEnvelope()
	e.Span = &TraceSpan{Peer: "p:9", Hop: 1, Drop: "duplicate"}
	frame, _ = EncodeEnvelope(e)
	if got, _ = DecodeEnvelope(frame); !reflect.DeepEqual(e, got) {
		t.Fatalf("span-only mismatch: %+v", got)
	}
}

// TestTracelessFrameMatchesLegacyLayout pins backward compatibility: an
// envelope without trace fields must encode byte-identically to the
// pre-extension format, so frames from this encoder parse under
// decoders that predate extensions.
func TestTracelessFrameMatchesLegacyLayout(t *testing.T) {
	e := sampleEnvelope()
	legacy := make([]byte, 0, 64)
	legacy = append(legacy, byte(e.Kind), e.TTL, e.Hops)
	legacy = append(legacy, e.ID[:]...)
	legacy = binary.BigEndian.AppendUint16(legacy, uint16(len(e.From)))
	legacy = append(legacy, e.From...)
	legacy = binary.BigEndian.AppendUint16(legacy, uint16(len(e.To)))
	legacy = append(legacy, e.To...)
	legacy = binary.BigEndian.AppendUint32(legacy, uint32(len(e.Body)))
	legacy = append(legacy, e.Body...)
	if !bytes.Equal(rawBody(e), legacy) {
		t.Fatal("traceless envelope no longer matches the legacy layout")
	}
}

// TestUnknownExtensionTolerated pins forward compatibility: a frame
// carrying an extension tag this decoder does not know must still parse,
// with the unknown field dropped.
func TestUnknownExtensionTolerated(t *testing.T) {
	e := sampleTracedEnvelope()
	raw := rawBody(e)
	raw = appendExt(raw, 250, []byte("from-the-future"))
	raw = appendExt(raw, 251, nil) // empty unknown extension

	frame := make([]byte, 0, len(raw)+5)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(raw)+1))
	frame = append(frame, 0) // no compression
	frame = append(frame, raw...)

	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode with unknown extensions: %v", err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("known fields corrupted by unknown extensions:\n have %+v\n want %+v", got, e)
	}
}

func TestTruncatedExtensionRejected(t *testing.T) {
	e := sampleTracedEnvelope()
	raw := rawBody(e)
	fixed := len(rawBody(sampleEnvelopeFrom(e)))
	// Cuts landing exactly on a record boundary are complete (shorter)
	// frames — extensions are optional — so only mid-record cuts must
	// be rejected.
	boundary := map[int]bool{
		fixed + extHeaderSize + len(Marshal(e.Trace)): true,
	}
	for cut := fixed + 1; cut < len(raw); cut++ {
		if boundary[cut] {
			continue
		}
		frame := make([]byte, 0, cut+5)
		frame = binary.BigEndian.AppendUint32(frame, uint32(cut+1))
		frame = append(frame, 0)
		frame = append(frame, raw[:cut]...)
		if _, err := DecodeEnvelope(frame); !errors.Is(err, errBadFrame) {
			t.Fatalf("cut=%d: want errBadFrame, got %v", cut, err)
		}
	}
}

// sampleEnvelopeFrom strips the trace fields so tests can measure where
// the fixed layout ends and extensions begin.
func sampleEnvelopeFrom(e *Envelope) *Envelope {
	cp := *e
	cp.Trace = nil
	cp.Span = nil
	cp.QRoute = nil
	return &cp
}

func TestCorruptExtensionPayloadRejected(t *testing.T) {
	e := sampleEnvelope()
	raw := rawBody(e)
	// A trace extension whose payload is garbage must fail parsing, not
	// be silently accepted.
	raw = appendExt(raw, extTrace, []byte{0x01})
	frame := make([]byte, 0, len(raw)+5)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(raw)+1))
	frame = append(frame, 0)
	frame = append(frame, raw...)
	if _, err := DecodeEnvelope(frame); !errors.Is(err, errBadFrame) {
		t.Fatalf("want errBadFrame for corrupt trace payload, got %v", err)
	}
}

func TestOversizeExtensionRejected(t *testing.T) {
	e := sampleEnvelope()
	e.Trace = &TraceContext{QueryID: NewMsgID(), Base: strings.Repeat("x", 1<<16)}
	if _, err := EncodeEnvelope(e); !errors.Is(err, errBadFrame) {
		t.Fatalf("want errBadFrame for oversize trace, got %v", err)
	}
	e = sampleEnvelope()
	e.Span = &TraceSpan{Peer: strings.Repeat("y", 1<<16)}
	if _, err := EncodeEnvelope(e); !errors.Is(err, errBadFrame) {
		t.Fatalf("want errBadFrame for oversize span, got %v", err)
	}
}

func TestForwardedSharesTraceContext(t *testing.T) {
	e := sampleTracedEnvelope()
	f := e.Forwarded("b", "c")
	if f.Trace != e.Trace {
		t.Fatal("Forwarded must share the trace context")
	}
}

// Property: traced envelopes round-trip exactly for arbitrary span
// field values, including negative-looking values in varint fields.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(base, peer, parent, drop string, hop int16, waitNS, execNS int64, matches, fanOut int16) bool {
		if len(base) > 1<<10 {
			base = base[:1<<10]
		}
		e := sampleEnvelope()
		e.Trace = &TraceContext{QueryID: NewMsgID(), Base: base}
		e.Span = &TraceSpan{
			Peer: peer, Parent: parent, Hop: int(hop),
			WaitNS: waitNS, ExecNS: execNS,
			Matches: int(matches), FanOut: int(fanOut), Drop: drop,
		}
		frame, err := EncodeEnvelope(e)
		if err != nil {
			return false
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMsgID(t *testing.T) {
	id := NewMsgID()
	got, err := ParseMsgID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseMsgID round trip: %v, %v", got, err)
	}
	if _, err := ParseMsgID("zz"); err == nil {
		t.Fatal("non-hex id must be rejected")
	}
	if _, err := ParseMsgID("abcd"); err == nil {
		t.Fatal("short id must be rejected")
	}
}

// --- qroute extension coverage ---

func sampleQRoutedEnvelope() *Envelope {
	e := sampleEnvelope()
	e.QRoute = &QRoute{Via: "node-a:4001", Cached: true, Epoch: 17}
	return e
}

func TestQRouteRoundTrip(t *testing.T) {
	e := sampleQRoutedEnvelope()
	frame, err := EncodeEnvelope(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("qroute round trip mismatch:\n have %+v\n want %+v", got, e)
	}
	// Stacked with the trace extensions it must still round-trip.
	e = sampleTracedEnvelope()
	e.QRoute = &QRoute{Via: "n:9", Epoch: 3}
	frame, _ = EncodeEnvelope(e)
	if got, _ = DecodeEnvelope(frame); !reflect.DeepEqual(e, got) {
		t.Fatalf("qroute+trace mismatch: %+v", got)
	}
	// Zero-value extension (present but empty) survives too.
	e = sampleEnvelope()
	e.QRoute = &QRoute{}
	frame, _ = EncodeEnvelope(e)
	if got, _ = DecodeEnvelope(frame); !reflect.DeepEqual(e, got) {
		t.Fatalf("zero qroute mismatch: %+v", got)
	}
}

// TestQRouteFrameUnderOldDecoder pins new-encoder → old-decoder
// compatibility. A decoder that predates the qroute extension treats tag
// extQRoute exactly like any unknown tag — skipped by length — so we
// emulate it by rewriting the tag byte to an unassigned value and
// checking every legacy field survives with the extension dropped.
func TestQRouteFrameUnderOldDecoder(t *testing.T) {
	e := sampleQRoutedEnvelope()
	raw := rawBody(e)
	fixed := len(rawBody(sampleEnvelopeFrom(e)))
	if raw[fixed] != extQRoute {
		t.Fatalf("expected qroute tag at offset %d, found %d", fixed, raw[fixed])
	}
	raw[fixed] = 200 // unassigned: what an old decoder effectively sees

	frame := make([]byte, 0, len(raw)+5)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(raw)+1))
	frame = append(frame, 0)
	frame = append(frame, raw...)

	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("old decoder must tolerate the qroute extension: %v", err)
	}
	want := sampleEnvelopeFrom(e)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("legacy fields corrupted:\n have %+v\n want %+v", got, want)
	}
}

func TestCorruptQRoutePayloadRejected(t *testing.T) {
	e := sampleEnvelope()
	raw := rawBody(e)
	// A qroute extension whose payload is truncated mid-string must fail
	// parsing, not be silently accepted.
	raw = appendExt(raw, extQRoute, []byte{0x09, 'x'})
	frame := make([]byte, 0, len(raw)+5)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(raw)+1))
	frame = append(frame, 0)
	frame = append(frame, raw...)
	if _, err := DecodeEnvelope(frame); !errors.Is(err, errBadFrame) {
		t.Fatalf("want errBadFrame for corrupt qroute payload, got %v", err)
	}
}

// TestRecvAllocatesWhatArrives: a frame's length prefix is a claim, not
// bytes. A peer that announces MaxFrameSize, sends ten bytes and hangs up
// must not make the reader allocate the 16 MiB it announced.
func TestRecvAllocatesWhatArrives(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	go func() {
		var hdr [frameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:4], MaxFrameSize)
		_, _ = remote.Write(append(hdr[:], make([]byte, 10)...)) // the reader sees what arrived
		remote.Close()
	}()
	c := NewConn(local)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Recv of a frame cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20); got > limit {
		t.Fatalf("Recv of 10 bytes under a %d-byte length allocated %d bytes, limit %d", MaxFrameSize, got, limit)
	}
}

// TestRecvGrowsInSteps: frames on both sides of readStep, and one that
// takes several steps, arrive byte for byte; a payload of just under
// readStep bytes is still read into a single buffer.
func TestRecvGrowsInSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var stream bytes.Buffer
	w := NewConn(&stream)
	var sent []*Envelope
	for _, size := range []int{readStep - 100, readStep + 1, 5*readStep + 17, 10} {
		e := sampleEnvelope()
		e.Body = make([]byte, size)
		rng.Read(e.Body) // random: the frame travels stored, as long as the body
		if err := w.Send(e); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, e)
	}
	r := NewConn(&stream)
	for _, want := range sent {
		got, err := r.Recv()
		if err != nil {
			t.Fatalf("%d-byte body: %v", len(want.Body), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte body came back changed", len(want.Body))
		}
	}

	e := sampleEnvelope()
	e.Body = make([]byte, readStep-len(rawBody(&Envelope{Kind: e.Kind, From: e.From, To: e.To}))-1)
	rng.Read(e.Body)
	frame, err := EncodeEnvelope(e)
	if err != nil || len(frame) != frameHeaderSize+readStep-1 || FrameCompressed(frame) {
		t.Fatalf("fixture: %d-byte frame, compressed %v, %v; want a stored frame of %d", len(frame), FrameCompressed(frame), err, frameHeaderSize+readStep-1)
	}
	var src bytes.Reader
	var hdr [frameHeaderSize]byte
	decodeOnly := testing.AllocsPerRun(20, func() { _, _ = DecodeEnvelope(frame) })
	read := testing.AllocsPerRun(20, func() {
		src.Reset(frame)
		if _, err := readEnvelope(&src, &hdr); err != nil {
			t.Fatal(err)
		}
	})
	// The decode's and one payload buffer: the header is the caller's
	// (a Conn's, one per connection).
	if read != decodeOnly+1 {
		t.Fatalf("readEnvelope of a %d-byte payload: %v allocs, want the decode's %v and one buffer", readStep-1, read, decodeOnly)
	}
}
