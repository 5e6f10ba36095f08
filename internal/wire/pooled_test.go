package wire

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goldenEnvelopes are the frames the byte-identity fence covers: the
// committed fuzz-corpus envelopes (decoded from their seed files) plus
// one envelope per encoder path — stored in place, compressed small,
// compressed large, compressed-but-not-kept — and the two sizes either
// side of the compression threshold.
func goldenEnvelopes(t testing.TB) []*Envelope {
	t.Helper()
	var envs []*Envelope
	for _, seed := range []string{"qroute-v1", "tracecontext-v1", "tracespan-v1"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeEnvelope", seed))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		frame, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		env, err := DecodeEnvelope([]byte(frame))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		envs = append(envs, env)
	}
	id := MsgID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	rng := rand.New(rand.NewSource(15))
	random := make([]byte, 10<<10)
	rng.Read(random)
	text := bytes.Repeat([]byte("the keyword agent scans every object; "), 60)
	body := func(rawSize int) []byte { // a body that makes the raw envelope exactly rawSize bytes
		return bytes.Repeat([]byte{'x'}, rawSize-envelopeHeaderSize-len("a:1")-len("b:2"))
	}
	return append(envs,
		&Envelope{Kind: KindAgent, ID: id, TTL: 7, Hops: 1, From: "127.0.0.1:54321", To: "127.0.0.1:54322",
			Body:  []byte("\x07keyword\x05\x03kw7\x0f127.0.0.1:54321\x00\x00\x00\x01 and some agent state"),
			Trace: &TraceContext{QueryID: id, Base: "127.0.0.1:54321"}},
		&Envelope{Kind: KindAgent, ID: id, TTL: 7, From: "a:1", To: "b:2", Body: make([]byte, 2048)},
		&Envelope{Kind: KindClassShip, ID: id, TTL: 1, From: "a:1", To: "b:2", Body: text,
			QRoute: &QRoute{Via: "a:1", Cached: true, Epoch: 9}},
		&Envelope{Kind: KindResult, ID: id, TTL: 1, Hops: 2, From: "127.0.0.1:54322", To: "127.0.0.1:54321", Body: random,
			Span: &TraceSpan{Peer: "127.0.0.1:54322", Parent: "127.0.0.1:54321", Hop: 2, WaitNS: 120_000, ExecNS: 1_100_000, Matches: 10, FanOut: 3}},
		&Envelope{Kind: KindResult, ID: id, TTL: 1, From: "a:1", To: "b:2", Body: random[:200]},
		&Envelope{Kind: KindPeerProbe, ID: id, TTL: 1, From: "a:1", To: "b:2", Body: body(compressionThreshold - 1)},
		&Envelope{Kind: KindPeerProbe, ID: id, TTL: 1, From: "a:1", To: "b:2", Body: body(compressionThreshold)},
	)
}

// frameDigest is a frame's golden form: the hex of a short frame, the
// length and SHA-256 of a long one.
func frameDigest(frame []byte) string {
	if len(frame) <= 256 {
		return hex.EncodeToString(frame)
	}
	sum := sha256.Sum256(frame)
	return strconv.Itoa(len(frame)) + ":" + hex.EncodeToString(sum[:])
}

// TestPooledEncoderMatchesGolden: the frames are byte for byte the ones a
// fresh gzip.Writer per frame produced (testdata/frames.golden was written
// by this test's digest loop before the compressor state was pooled) —
// in any order, so nothing of one frame leaks into the next through the
// recycled state.
func TestPooledEncoderMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "frames.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	envs := goldenEnvelopes(t)
	if len(envs) != len(want) {
		t.Fatalf("%d envelopes, %d golden frames", len(envs), len(want))
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 5; round++ {
		for _, i := range rng.Perm(len(envs)) {
			frame, err := EncodeEnvelope(envs[i])
			if err != nil {
				t.Fatalf("envelope %d: %v", i, err)
			}
			if got := frameDigest(frame); got != want[i] {
				t.Fatalf("round %d, envelope %d: frame %s, golden %s", round, i, got, want[i])
			}
			back, err := DecodeEnvelope(frame)
			if err != nil || !reflect.DeepEqual(back, envs[i]) {
				t.Fatalf("envelope %d does not round-trip: %v", i, err)
			}
		}
	}
}

// TestPooledCodecConcurrent: eight goroutines share the pooled compressor
// and decompressor state; every frame must still be the golden one and
// decode to its envelope. Every decoded envelope is also retained and
// handed to two checkers that keep re-reading it while later frames are
// decoded: a Body that aliased anything reusable (pooled gzip state, a
// reader's window) would be written under them. Run under -race.
func TestPooledCodecConcurrent(t *testing.T) {
	envs := goldenEnvelopes(t)
	want := make([][]byte, len(envs))
	for i, e := range envs {
		var err error
		if want[i], err = EncodeEnvelope(e); err != nil {
			t.Fatal(err)
		}
	}
	type retained struct {
		i   int
		env *Envelope
	}
	const goroutines, frames = 8, 200
	kept := make(chan retained, goroutines*frames)
	var checkers, wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			var held []retained
			for r := range kept {
				held = append(held, r)
				for _, h := range held[max(0, len(held)-16):] {
					if !bytes.Equal(h.env.Body, envs[h.i].Body) {
						t.Errorf("a retained copy of envelope %d changed while later frames were decoded", h.i)
						return
					}
				}
			}
			for _, h := range held {
				if !reflect.DeepEqual(h.env, envs[h.i]) {
					t.Errorf("a retained copy of envelope %d did not survive", h.i)
					return
				}
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < frames; n++ {
				i := rng.Intn(len(envs))
				frame, err := EncodeEnvelope(envs[i])
				if err != nil || !bytes.Equal(frame, want[i]) {
					t.Errorf("goroutine %d: envelope %d encoded differently (%v)", g, i, err)
					return
				}
				back, err := readEnvelope(bytes.NewReader(frame), new([frameHeaderSize]byte))
				if err != nil || !reflect.DeepEqual(back, envs[i]) {
					t.Errorf("goroutine %d: envelope %d does not round-trip (%v)", g, i, err)
					return
				}
				kept <- retained{i, back}
			}
		}(g)
	}
	wg.Wait()
	close(kept)
	checkers.Wait()
}

// gzipFrame frames the given gzip members as one compressed payload.
func gzipFrame(t testing.TB, members ...[]byte) []byte {
	t.Helper()
	var z bytes.Buffer
	for _, m := range members {
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(m); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(z.Len()+1))
	frame = append(frame, flagGzip)
	return append(frame, z.Bytes()...)
}

// TestInflateLimit: the size hint does not loosen the bound on what a
// frame may inflate to.
func TestInflateLimit(t *testing.T) {
	e := sampleEnvelope()
	e.Body = make([]byte, MaxFrameSize-envelopeHeaderSize-len(e.From)-len(e.To))
	atLimit := rawBody(e)
	if len(atLimit) != MaxFrameSize {
		t.Fatalf("fixture is %d bytes, want %d", len(atLimit), MaxFrameSize)
	}
	if got, err := DecodeEnvelope(gzipFrame(t, atLimit)); err != nil || len(got.Body) != len(e.Body) {
		t.Fatalf("a frame inflating to exactly MaxFrameSize must decode: %v", err)
	}
	over := gzipFrame(t, append(atLimit, 0))
	if _, err := DecodeEnvelope(over); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("DecodeEnvelope of MaxFrameSize+1 inflated bytes: %v, want errFrameTooLarge", err)
	}
	if _, err := readEnvelope(bytes.NewReader(over), new([frameHeaderSize]byte)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("readEnvelope of MaxFrameSize+1 inflated bytes: %v, want errFrameTooLarge", err)
	}
}

// TestEncodeRefusesWhatDecodeRefuses: EncodeEnvelope sends no frame that
// DecodeEnvelope refuses. A body that inflates to exactly MaxFrameSize
// bytes is the largest a decoder takes (TestInflateLimit); one byte more
// is refused before anything is deflated, however well it would compress,
// and so is a body at the limit that cannot shrink, whose stored frame
// would declare MaxFrameSize+1 bytes.
func TestEncodeRefusesWhatDecodeRefuses(t *testing.T) {
	e := sampleEnvelope()
	bodyAtLimit := MaxFrameSize - envelopeHeaderSize - len(e.From) - len(e.To)
	random := make([]byte, bodyAtLimit)
	rand.New(rand.NewSource(1)).Read(random)
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"zeros at the limit", make([]byte, bodyAtLimit), true},
		{"zeros one byte over", make([]byte, bodyAtLimit+1), false},
		{"zeros 100 bytes over", make([]byte, bodyAtLimit+100), false},
		{"random at the limit", random, false},
	} {
		e.Body = tc.body
		frame, err := EncodeEnvelope(e)
		if !tc.ok {
			if !errors.Is(err, errFrameTooLarge) {
				t.Errorf("%s: EncodeEnvelope sent a %d-byte frame (%v), want errFrameTooLarge", tc.name, len(frame), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := DecodeEnvelope(frame); err != nil || len(got.Body) != len(tc.body) {
			t.Fatalf("%s: the frame does not decode: %v", tc.name, err)
		}
	}
}

// TestInflateSizeHintIsOnlyAHint: the ISIZE trailer sizes the buffer but
// decides nothing. Overstated, it must not buy a large allocation for a
// small frame; understated — honestly, by a multi-member stream whose
// trailer counts the last member only, or by a forged trailer — it must
// not truncate the output.
func TestInflateSizeHintIsOnlyAHint(t *testing.T) {
	e := sampleEnvelope()
	e.Body = bytes.Repeat([]byte("0123456789abcdef"), 300)
	raw := rawBody(e)

	// Two members: the trailer says 100 bytes, the stream holds them all.
	got, err := DecodeEnvelope(gzipFrame(t, raw[:len(raw)-100], raw[len(raw)-100:]))
	if err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("multi-member payload: %v, envelope intact: %v", err, reflect.DeepEqual(got, e))
	}

	forge := func(isize uint32) []byte {
		frame := gzipFrame(t, raw)
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], isize)
		return frame
	}
	// gzip itself checks ISIZE once the stream ends, so a forged trailer
	// fails the frame; what the hint must not do is act on it first.
	for _, isize := range []uint32{0, 1, uint32(len(raw)) - 1, uint32(len(raw)) + 1, MaxFrameSize, 0xFFFFFFFF} {
		if _, err := DecodeEnvelope(forge(isize)); err == nil {
			t.Fatalf("a frame whose ISIZE says %d for %d bytes decoded", isize, len(raw))
		}
	}
	huge := forge(0xFFFFFFFF)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodeEnvelope(huge)
	runtime.ReadMemStats(&after)
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(huge))*maxDeflateRatio+(64<<10); spent > limit {
		t.Fatalf("a %d-byte frame claiming 4 GiB made the decoder allocate %d bytes (limit %d)", len(huge), spent, limit)
	}
}
