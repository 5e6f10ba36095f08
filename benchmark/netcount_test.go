package main

import (
	"math/rand"
	"testing"
	"time"

	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// pair starts two messengers over the counting network; every envelope
// either receives is signalled on got.
func pair(t *testing.T, nw transport.Network) (a, b *transport.Messenger, got chan *wire.Envelope) {
	t.Helper()
	got = make(chan *wire.Envelope, 64) // sized above the frames any test here sends
	handler := func(env *wire.Envelope) { got <- env }
	a, err := transport.NewMessenger(nw, "", handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = transport.NewMessenger(nw, "", handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, got
}

func await(t *testing.T, got chan *wire.Envelope, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d envelopes delivered", i, n)
		}
	}
}

func TestCountingNetBytesInEqualBytesOut(t *testing.T) {
	nw := newCountingNet(transport.TCP{}, nil)
	a, b, got := pair(t, nw)

	small := agentFrame("kw7")
	big := resultFrame(rand.New(rand.NewSource(1)))
	want := uint64(0)
	for _, env := range []*wire.Envelope{small, big, small} {
		frame, err := wire.EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		want += 2 * uint64(len(frame)) // sent once in each direction
		if err := a.Send(b.Addr(), env); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(a.Addr(), env); err != nil {
			t.Fatal(err)
		}
	}
	await(t, got, 6)
	// A write is counted when Write returns, which can be after the peer
	// has read the bytes; Close waits for the send workers.
	a.Close()
	b.Close()
	if w, r := nw.written.Load(), nw.read.Load(); w != want || r != want {
		t.Errorf("wrote %d bytes and read %d, want %d each (the encoded frames)", w, r, want)
	}
	if n := nw.writes.Load(); n != 6 {
		t.Errorf("%d socket writes for 6 envelopes; the messenger writes one frame per call", n)
	}
}

func TestRecorderPairsWritesWithReads(t *testing.T) {
	rec := newNetRecorder()
	nw := newCountingNet(transport.TCP{}, rec)
	a, b, got := pair(t, nw)

	// Before begin() bytes are tracked for pairing but nothing is kept.
	if err := a.Send(b.Addr(), agentFrame("warm")); err != nil {
		t.Fatal(err)
	}
	await(t, got, 1)
	rec.begin()
	big := resultFrame(rand.New(rand.NewSource(1)))
	frame, err := wire.EncodeEnvelope(big)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), big); err != nil {
			t.Fatal(err)
		}
	}
	await(t, got, n)
	rec.end()
	if err := a.Send(b.Addr(), big); err != nil { // after end(): not recorded
		t.Fatal(err)
	}
	await(t, got, 1)

	s := rec.summary()
	if len(s.flight) != n {
		t.Fatalf("%d write→read flights recorded, want %d", len(s.flight), n)
	}
	for _, f := range s.flight {
		if f <= 0 || f > 5*time.Second {
			t.Errorf("implausible flight time %v", f)
		}
	}
	if len(s.conns) != 1 {
		t.Fatalf("%d connections carried traffic in the window, want 1: %+v", len(s.conns), s.conns)
	}
	c := s.conns[0]
	if want := uint64(n * len(frame)); c.BytesWritten != want || c.BytesRead != want || c.Writes != n {
		t.Errorf("connection totals %+v, want %d bytes each way in %d writes", c, want, n)
	}
	bucket := sizeBucket(len(frame))
	if h := s.frameHist[bucket]; h.n != n || len(s.frames[bucket]) != n {
		t.Errorf("frame bucket %d holds %d frames and %d samples, want %d", bucket, h.n, len(s.frames[bucket]), n)
	}
	if env, err := wire.DecodeEnvelope(s.frames[bucket][0]); err != nil || env.Kind != wire.KindResult {
		t.Errorf("a retained frame must decode back to the envelope sent: %v", err)
	}
	writes := 0
	for _, e := range s.events {
		if e.Write {
			writes++
		}
	}
	if writes != n {
		t.Errorf("%d write events, want %d", writes, n)
	}
}

func TestSizeBucket(t *testing.T) {
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 128: 7, 129: 8, 10240: 14} {
		if got := sizeBucket(n); got != want {
			t.Errorf("sizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}
