package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// Who owns what after a decode (the ownership contract of Envelope.Body):
// the body is a view, clipped so it cannot grow into what lies behind it,
// of a buffer that only the envelope holds.

// overlap reports whether two slices share any byte of memory.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// TestBodyAppendReallocates: the extension records sit right behind the
// body in the frame; append to Body must copy, not write into them.
func TestBodyAppendReallocates(t *testing.T) {
	random := make([]byte, 4<<10)
	rand.New(rand.NewSource(2)).Read(random)
	for name, body := range map[string][]byte{
		"stored":   random,                                    // Body views the frame itself
		"inflated": bytes.Repeat([]byte("answers, "), 400),    // Body views the inflated buffer
		"small":    []byte("under the compression threshold"), // stored in place
	} {
		e := sampleTracedEnvelope()
		e.Body = body
		frame, err := EncodeEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(frame)
		got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Body) != len(got.Body) {
			t.Fatalf("%s: Body has len %d, cap %d: append would write behind it", name, len(got.Body), cap(got.Body))
		}
		if stored := !FrameCompressed(frame); stored != overlap(got.Body, frame) {
			t.Fatalf("%s: stored = %v, Body inside the frame = %v", name, stored, !stored)
		}
		grown := append(got.Body, "written behind the body"...)
		if overlap(grown, got.Body) || !bytes.Equal(frame, pristine) {
			t.Fatalf("%s: append to Body wrote into the frame", name)
		}
		again, err := DecodeEnvelope(frame)
		if err != nil || !reflect.DeepEqual(again, e) {
			t.Fatalf("%s: the frame no longer decodes to its envelope (%v)", name, err)
		}
	}
}

// TestConnEnvelopesShareNoMemory: envelopes read back to back from one
// Conn each own their buffer — small ones that arrived in one window of
// the bufio.Reader included — and stay intact while later frames pass
// through that window.
func TestConnEnvelopesShareNoMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sent []*Envelope
	var stream bytes.Buffer
	w := NewConn(&stream)
	for i := 0; i < 64; i++ {
		e := sampleEnvelope()
		e.Body = make([]byte, []int{16, 200, 1500, 6000}[i%4]) // below and above bufio's 4 KB
		rng.Read(e.Body)
		if i%8 == 7 {
			e.Body = bytes.Repeat([]byte("compressible "), 100)
		}
		if err := w.Send(e); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, e)
	}
	c := NewConn(&stream)
	var got []*Envelope
	for range sent {
		e, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if cap(e.Body) != len(e.Body) {
			t.Fatalf("Body has len %d, cap %d", len(e.Body), cap(e.Body))
		}
		got = append(got, e)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, sent[i]) {
			t.Fatalf("envelope %d changed while later frames were read", i)
		}
		for j := i + 1; j < len(got); j++ {
			if overlap(e.Body, got[j].Body) {
				t.Fatalf("envelopes %d and %d share memory", i, j)
			}
		}
	}
}

// TestReadEnvelopeZeroLength: a length prefix of zero cannot even hold the
// flags byte — the frame is malformed, not large, to both decoders.
func TestReadEnvelopeZeroLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"zero length prefix", []byte{0, 0, 0, 0, 0}, errBadFrame},
		{"zero length prefix, gzip flag", []byte{0, 0, 0, 0, flagGzip}, errBadFrame},
		{"length beyond the maximum", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0}, errFrameTooLarge},
	} {
		if _, err := readEnvelope(bytes.NewReader(tc.frame), new([frameHeaderSize]byte)); !errors.Is(err, tc.want) {
			t.Errorf("readEnvelope(%s): %v, want %v", tc.name, err, tc.want)
		}
		if _, err := DecodeEnvelope(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("DecodeEnvelope(%s): %v, want %v", tc.name, err, tc.want)
		}
	}
}
