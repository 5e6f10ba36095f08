package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// TestSendReturnsTheEnvelope: Send encodes before it returns, so the
// caller may rewrite the envelope and its Body at once — one body buffer
// reused for every Send, as core's pooled result bodies are — and each
// frame still carries what the envelope held at its Send.
func TestSendReturnsTheEnvelope(t *testing.T) {
	for name, nw := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			c := newCollector()
			recv, err := NewMessenger(nw, "", c.handle)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			const n = 200
			// Room for every frame: with one P the worker may not run
			// until the loop is done.
			send, err := NewMessengerOpts(nw, "", nil, Options{QueueSize: n})
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			e := env(wire.KindResult, "")
			body := make([]byte, 0, 4096)
			for i := 0; i < n; i++ {
				body = append(body[:0], bytes.Repeat([]byte{byte(i)}, 100+17*i)...)
				e.Body, e.Hops, e.Kind = body, uint8(i), wire.KindResult
				if err := send.Send(recv.Addr(), e); err != nil {
					t.Fatal(err)
				}
				// The caller's again: scribble over everything Send read.
				for j := range body {
					body[j] = 0xEE
				}
				e.Hops, e.Kind = 0xEE, wire.KindAgent
			}
			for i, got := range c.waitFor(t, n) {
				if got.Kind != wire.KindResult || got.Hops != uint8(i) ||
					!bytes.Equal(got.Body, bytes.Repeat([]byte{byte(i)}, 100+17*i)) {
					t.Fatalf("message %d arrived as kind %v, hops %d, %d body bytes: not what it was sent as", i, got.Kind, got.Hops, len(got.Body))
				}
			}
		})
	}
}

// poolCap is the largest buffer the wire pool keeps (its
// maxPooledBuffer).
const poolCap = 64 << 10

// seqBody is the body of frame seq: its size cycles from 10 bytes to
// past poolCap, so pooled and unpooled buffers take turns, and every
// fourth one is compressible text, so deflated frames are written over
// their raw bytes too.
func seqBody(seq uint64) []byte {
	sizes := []int{10, 300, 1500, 9_000, 40_000, poolCap + 4_000, 150_000}
	size := sizes[seq%uint64(len(sizes))]
	if seq%4 == 3 {
		return bytes.Repeat([]byte("owner bytes "), size/12+1)[:size]
	}
	b := make([]byte, size)
	rand.New(rand.NewSource(int64(seq))).Read(b)
	return b
}

// TestPooledFramesArriveExact: frames of every size class go through one
// destination's queue while it fills (queue-full drops) and while it is
// forgotten (forget drops), so pooled buffers are put back on every path
// and taken again at once. Every frame that arrives is byte for byte the
// one sent under its sequence number.
func TestPooledFramesArriveExact(t *testing.T) {
	hn := newHangNet(NewInProc())
	c := newCollector()
	recv, err := NewMessenger(hn, "exact-recv", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewMessengerOpts(hn, "exact-send", nil, Options{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var seq, accepted uint64
	for round := 0; round < 30; round++ {
		// A hung dial holds the worker, so the queue fills behind it.
		// Some rounds start on a warm connection and only fill when the
		// burst outruns the worker.
		if round%2 == 0 {
			send.Forget(recv.Addr())
			hn.hang(recv.Addr())
		}
		for i := 0; i < 12; i++ {
			seq++
			e := env(wire.KindResult, "")
			binary.BigEndian.PutUint64(e.ID[:], seq)
			e.Body = seqBody(seq)
			if err := send.Send(recv.Addr(), e); err == nil {
				accepted++
			} else if !errors.Is(err, errQueueFull) {
				t.Fatal(err)
			}
		}
		if round%6 == 4 {
			send.Forget(recv.Addr()) // drops what is queued behind the hung dial
		}
		hn.release(recv.Addr())
	}

	// Settle: every accepted frame is written or dropped by a worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sent := send.sent.Value()
		if sent+send.droppedForget.Value() == accepted && uint64(c.count()) == sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accepted %d frames; %d written, %d forgotten, %d received", accepted, sent, send.droppedForget.Value(), c.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	pooled, unpooled := 0, 0
	for _, got := range c.waitFor(t, c.count()) {
		n := binary.BigEndian.Uint64(got.ID[:])
		if !bytes.Equal(got.Body, seqBody(n)) {
			t.Fatalf("frame %d arrived with %d body bytes that are not the %d sent", n, len(got.Body), len(seqBody(n)))
		}
		if len(got.Body) > poolCap {
			unpooled++
		} else {
			pooled++
		}
	}
	t.Logf("%d sent: %d pooled and %d unpooled frames arrived exact, %d dropped queue-full, %d dropped by Forget",
		seq, pooled, unpooled, send.droppedQueue.Value(), send.droppedForget.Value())
	if pooled < 10 || unpooled == 0 || send.droppedQueue.Value() == 0 || send.droppedForget.Value() == 0 {
		t.Fatal("the run did not cover every path")
	}
}

// TestSendReturnsEncodeError: an envelope that does not encode is refused
// by Send itself, counted under reason="encode" and journalled, and
// nothing reaches the wire for it.
func TestSendReturnsEncodeError(t *testing.T) {
	nw := NewInProc()
	c := newCollector()
	recv, err := NewMessenger(nw, "enc-recv", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	journal := obs.NewJournal("enc-send", 16)
	send, err := NewMessengerOpts(nw, "enc-send", nil, Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	huge := env(wire.KindResult, "")
	huge.Body = make([]byte, wire.MaxFrameSize)
	for _, bad := range []*wire.Envelope{env(0, "no kind"), huge} {
		if err := send.Send(recv.Addr(), bad); err == nil {
			t.Fatalf("Send of an envelope that cannot encode (%d-byte body) returned nil", len(bad.Body))
		}
	}
	if err := send.Send(recv.Addr(), env(wire.KindAgent, "fine")); err != nil {
		t.Fatal(err)
	}
	if got := c.waitFor(t, 1); string(got[0].Body) != "fine" {
		t.Fatalf("delivered %q, want only the envelope that encodes", got[0].Body)
	}
	if got := send.droppedEncode.Value(); got != 2 {
		t.Fatalf(`reason="encode" drops = %d, want 2`, got)
	}
	if st := send.Stats(); st.Dropped != 2 || st.Sent != 1 {
		t.Fatalf("stats = %+v, want 2 dropped and 1 sent", st)
	}
	events, _, _ := journal.Since(0, 16)
	encode := 0
	for _, ev := range events {
		if ev.Kind == obs.EvMessageDropped && ev.Reason == "encode" && ev.Peer == recv.Addr() {
			encode++
		}
	}
	if encode != 2 {
		t.Fatalf("journal holds %d encode drops for %s, want 2: %+v", encode, recv.Addr(), events)
	}
}
