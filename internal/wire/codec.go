package wire

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Codec errors.
var (
	errFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	errBadFrame      = errors.New("wire: malformed frame")
)

// MaxFrameSize bounds a single encoded envelope. Agents carrying class
// payloads are the largest messages in the system; 16 MiB is far above
// anything legitimate and protects readers from hostile length prefixes.
const MaxFrameSize = 16 << 20

// compressionThreshold is the encoded size below which gzip is skipped:
// tiny control messages grow under gzip, so they travel as stored frames.
const compressionThreshold = 128

// fixedCeiling is the raw size from which a frame is left to the probe
// and level-6 deflate; under it deflateFixed deflates it. A fixed-Huffman
// block has no code-length header to pay for, which beats level 6 on
// short bodies, but it cannot adapt to skewed text, which loses to it on
// longer ones (DESIGN.md §4 has the measurements).
const fixedCeiling = 256

// probeFloor is the raw size from which the incompressibility probe is
// asked: the plug-in entropy estimate reads about 255/(2n ln 2) bits per
// byte low, 0.18 at 1 KB, so below it random bytes look compressible.
// probeMargin is the share of the raw size an ideal order-0 coder must be
// able to save before deflate is tried (DESIGN.md §4 has the measurements
// behind both).
const (
	probeFloor  = 1024
	probeMargin = 1.0 / 32
)

// frame flags.
const (
	flagGzip = 1 << 0
)

// frameHeaderSize is the uint32 length plus the flags byte that lead
// every frame.
const frameHeaderSize = 4 + 1

// gzipEncoder is the reusable compressor state of one AppendEnvelope
// call. A gzip.Writer costs ~800 KB to build; Reset re-arms it for
// nothing and emits the same bytes a fresh writer would (same level,
// same zero header).
type gzipEncoder struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

var gzipEncoders = sync.Pool{New: func() any {
	return &gzipEncoder{zw: gzip.NewWriter(io.Discard)}
}}

// EncodeEnvelope serializes the envelope into a freshly allocated frame;
// it is AppendEnvelope(nil, e).
func EncodeEnvelope(e *Envelope) ([]byte, error) { return AppendEnvelope(nil, e) }

// AppendEnvelope appends the envelope's self-delimiting frame to dst and
// returns the extended slice:
//
//	uint32 length | uint8 flags | body
//
// where body is the envelope fields, gzip-compressed when that is tried
// and comes out smaller: never under compressionThreshold bytes, by
// deflateFixed under fixedCeiling, from there by level-6 deflate if
// mayCompress lets it. dst grows to hold the stored form — once for the
// fields, and again only if the extensions behind them overrun that; a
// compressed body is written over it. On error dst is returned as it
// came. The frame does not alias e: e and its Body are the caller's
// again when AppendEnvelope returns.
func AppendEnvelope(dst []byte, e *Envelope) ([]byte, error) {
	if !e.Kind.Valid() {
		return dst, fmt.Errorf("%w: invalid kind %d", errBadFrame, e.Kind)
	}
	// A body that alone exceeds MaxFrameSize is refused before it is
	// copied. The body is laid out behind the reserved header, so a frame
	// that travels stored is finished in place.
	fields := envelopeHeaderSize + len(e.From) + len(e.To) + len(e.Body)
	if fields > MaxFrameSize {
		return dst, errFrameTooLarge
	}
	start := len(dst)
	frame, fits := encodeBody(slices.Grow(dst, frameHeaderSize+fields)[:start+frameHeaderSize], e)
	if !fits {
		return dst, fmt.Errorf("%w: extension too large", errBadFrame)
	}
	// An inflated body over MaxFrameSize is what every decoder refuses;
	// the stored form is checked again below, after its flags byte.
	if len(frame)-start-frameHeaderSize > MaxFrameSize {
		return dst, errFrameTooLarge
	}

	var flags byte
	switch raw := frame[start+frameHeaderSize:]; {
	case len(raw) < compressionThreshold:
	case len(raw) < fixedCeiling:
		var member [fixedMemberMax]byte
		// Kept only when it shrinks, so it fits over the raw bytes
		// already in frame.
		if n := deflateFixed(&member, raw); n < len(raw) {
			frame = frame[:start+frameHeaderSize+copy(raw, member[:n])]
			flags |= flagGzip
		}
	case mayCompress(raw):
		z := gzipEncoders.Get().(*gzipEncoder)
		z.buf.Reset()
		z.zw.Reset(&z.buf)
		_, err := z.zw.Write(raw)
		if err == nil {
			err = z.zw.Close()
		}
		// Only keep the compressed form when it actually shrinks, so it
		// too fits over the raw bytes.
		if err == nil && z.buf.Len() < len(raw) {
			frame = frame[:start+frameHeaderSize+copy(raw, z.buf.Bytes())]
			flags |= flagGzip
		}
		gzipEncoders.Put(z) // also after an error: Reset re-arms it on the next Get
		if err != nil {
			return dst, fmt.Errorf("wire: compress: %w", err)
		}
	}
	n := len(frame) - start - 4
	if n > MaxFrameSize {
		return dst, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(n))
	frame[start+4] = flags
	return frame, nil
}

// mayCompress is the incompressibility probe: it reports whether an ideal
// order-0 coder could save at least probeMargin of raw — one pass into a
// byte histogram, then the entropy bound from the counts. Bodies under
// probeFloor are not judged. Deflate also finds repeats, which an order-0
// model cannot see: a flat histogram made of long repeats is stored
// although it would deflate. That costs bytes, never correctness.
func mayCompress(raw []byte) bool {
	if len(raw) < probeFloor {
		return true
	}
	var hist [256]uint32
	for _, b := range raw {
		hist[b]++
	}
	// Σ c·ln(n/c) nats, written n·ln(n) − Σ c·ln(c); math.Log is the
	// cheaper logarithm, so the one conversion to bits comes last.
	n := float64(len(raw))
	nats := n * math.Log(n)
	for _, c := range hist {
		if c > 1 {
			nats -= float64(c) * math.Log(float64(c))
		}
	}
	return nats/math.Ln2 <= 8*n*(1-probeMargin)
}

// Extension field tags. Extensions are appended after the body as
// (uint8 tag | uint16 length | payload) records — a versioned growth
// point: an envelope with no extensions encodes byte-identically to the
// original format, and decoders skip tags they do not recognize, so an
// old encoder's frames parse under a new decoder and vice versa.
const (
	extTrace  = 1 // TraceContext: per-query trace context
	extSpan   = 2 // TraceSpan: piggybacked hop record
	extQRoute = 3 // QRoute: routing attribution + cached-answer provenance
)

// extHeaderSize is the fixed overhead of one extension record.
const extHeaderSize = 1 + 2

// encodeBody appends the envelope fields to buf in a fixed order,
// followed by its extension records. It reports whether every extension
// payload fit its length field.
func encodeBody(buf []byte, e *Envelope) ([]byte, bool) {
	buf = append(buf, byte(e.Kind), e.TTL, e.Hops)
	buf = append(buf, e.ID[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.From)))
	buf = append(buf, e.From...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.To)))
	buf = append(buf, e.To...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Body)))
	buf = append(buf, e.Body...)
	return appendExts(buf, e)
}

// appendExts appends a record per extension e carries: its tag, a
// uint16 length that is filled in once the payload has been encoded
// behind it, then the payload. It reports whether every payload fit its
// length field. The calls are concrete so that the visitor stays on the
// stack (see decodeBody).
func appendExts(buf []byte, e *Envelope) ([]byte, bool) {
	var f Fields
	fits := true
	if e.Trace != nil {
		at := len(buf)
		f.enc.buf = append(buf, extTrace, 0, 0)
		e.Trace.Fields(&f)
		buf = f.enc.buf
		fits = sealExt(buf, at) && fits
	}
	if e.Span != nil {
		at := len(buf)
		f.enc.buf = append(buf, extSpan, 0, 0)
		e.Span.Fields(&f)
		buf = f.enc.buf
		fits = sealExt(buf, at) && fits
	}
	if e.QRoute != nil {
		at := len(buf)
		f.enc.buf = append(buf, extQRoute, 0, 0)
		e.QRoute.Fields(&f)
		buf = f.enc.buf
		fits = sealExt(buf, at) && fits
	}
	return buf, fits
}

// sealExt writes the length of the extension record that starts at at
// and runs to the end of buf, and reports whether it fits in a uint16.
func sealExt(buf []byte, at int) bool {
	n := len(buf) - at - extHeaderSize
	binary.BigEndian.PutUint16(buf[at+1:], uint16(n))
	return n <= math.MaxUint16
}

// decodeBody parses the fixed layout produced by encodeBody. The
// envelope's Body is a capacity-clipped view of raw, not a copy.
func decodeBody(raw []byte) (*Envelope, error) {
	if len(raw) < 3+16+2 {
		return nil, errBadFrame
	}
	e := &Envelope{Kind: Kind(raw[0]), TTL: raw[1], Hops: raw[2]}
	if !e.Kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind %d", errBadFrame, raw[0])
	}
	copy(e.ID[:], raw[3:19])
	p := 19

	readStr := func() (string, error) {
		if len(raw)-p < 2 {
			return "", errBadFrame
		}
		n := int(binary.BigEndian.Uint16(raw[p:]))
		p += 2
		if len(raw)-p < n {
			return "", errBadFrame
		}
		s := string(raw[p : p+n])
		p += n
		return s, nil
	}
	var err error
	if e.From, err = readStr(); err != nil {
		return nil, err
	}
	if e.To, err = readStr(); err != nil {
		return nil, err
	}
	if len(raw)-p < 4 {
		return nil, errBadFrame
	}
	bn := int(binary.BigEndian.Uint32(raw[p:]))
	p += 4
	if len(raw)-p < bn {
		return nil, fmt.Errorf("%w: body length %d, have %d", errBadFrame, bn, len(raw)-p)
	}
	if bn > 0 {
		e.Body = raw[p : p+bn : p+bn]
	}
	p += bn
	// Anything after the body is extension records. Unknown tags are
	// skipped so older encoders' frames and future fields both parse.
	for p < len(raw) {
		if len(raw)-p < extHeaderSize {
			return nil, fmt.Errorf("%w: truncated extension header", errBadFrame)
		}
		tag := raw[p]
		en := int(binary.BigEndian.Uint16(raw[p+1:]))
		p += extHeaderSize
		if len(raw)-p < en {
			return nil, fmt.Errorf("%w: extension %d truncated", errBadFrame, tag)
		}
		payload := raw[p : p+en]
		p += en
		// The calls are concrete so that f stays on the stack: through
		// the Message interface it would cost every traced frame an
		// allocation (allocbudget_test.go).
		var f Fields
		f.decode(payload)
		switch tag {
		case extTrace:
			e.Trace = new(TraceContext)
			e.Trace.Fields(&f)
		case extSpan:
			e.Span = new(TraceSpan)
			e.Span.Fields(&f)
		case extQRoute:
			e.QRoute = new(QRoute)
			e.QRoute.Fields(&f)
		default:
			continue // unknown extension: tolerated and dropped
		}
		if err := f.finish(); err != nil {
			return nil, fmt.Errorf("%w: extension %d: %v", errBadFrame, tag, err)
		}
	}
	return e, nil
}

// DecodeEnvelope parses a frame produced by EncodeEnvelope. The input must
// contain exactly one frame. The envelope may alias frame: the Body of a
// frame that travelled stored is a view of it (see Envelope.Body), so the
// caller must not write to or reuse frame while the envelope is in use.
func DecodeEnvelope(frame []byte) (*Envelope, error) {
	if len(frame) < 5 {
		return nil, errBadFrame
	}
	n := binary.BigEndian.Uint32(frame[0:4])
	if n > MaxFrameSize {
		return nil, errFrameTooLarge
	}
	if int(n) != len(frame)-4 {
		return nil, fmt.Errorf("%w: declared %d bytes, have %d", errBadFrame, n, len(frame)-4)
	}
	return decodeFlagged(frame[4], frame[5:])
}

func decodeFlagged(flags byte, payload []byte) (*Envelope, error) {
	if flags&flagGzip != 0 {
		raw, err := inflate(payload)
		if err != nil {
			return nil, err
		}
		payload = raw
	}
	return decodeBody(payload)
}

// gzipDecoder is the reusable decompressor state of one inflate call.
type gzipDecoder struct {
	src bytes.Reader
	zr  gzip.Reader
}

var gzipDecoders = sync.Pool{New: func() any { return new(gzipDecoder) }}

// maxDeflateRatio is above any expansion deflate can produce (its limit
// is about 1032:1), so a buffer of this many bytes per compressed byte
// is never too small for an honest frame.
const maxDeflateRatio = 1040

// inflate decompresses a gzip payload into a freshly allocated buffer,
// refusing more than MaxFrameSize bytes. The buffer is sized up front
// from the stream's ISIZE trailer. ISIZE is only a hint: it is clamped
// to MaxFrameSize and to what len(payload) compressed bytes could
// possibly expand to, so a lying trailer cannot make a small frame
// allocate a large buffer, and the read loop grows past an understated
// one — the stream decides how many bytes come out, never the hint.
func inflate(payload []byte) ([]byte, error) {
	z := gzipDecoders.Get().(*gzipDecoder)
	// Back into the pool on every return, errors included (Reset re-arms
	// it on the next Get); the state must not pin the caller's frame.
	defer func() {
		z.src.Reset(nil)
		gzipDecoders.Put(z)
	}()
	z.src.Reset(payload)
	if err := z.zr.Reset(&z.src); err != nil {
		return nil, fmt.Errorf("wire: decompress: %w", err)
	}
	hint := 0
	if len(payload) >= 4 {
		hint = int(min(uint64(binary.LittleEndian.Uint32(payload[len(payload)-4:])),
			uint64(len(payload))*maxDeflateRatio, MaxFrameSize))
	}
	// One byte beyond the hint lets the read that finds end-of-stream
	// happen without growing an exactly sized buffer.
	raw := make([]byte, 0, hint+1)
	for {
		n, err := z.zr.Read(raw[len(raw):min(cap(raw), MaxFrameSize+1)])
		raw = raw[:len(raw)+n]
		if len(raw) > MaxFrameSize {
			return nil, errFrameTooLarge
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wire: decompress: %w", err)
		}
		if len(raw) == cap(raw) {
			raw = slices.Grow(raw, 1) // the hint understated: grow as append would
		}
	}
	return raw, nil
}

// FrameCompressed reports whether an encoded frame carries its body
// gzip-compressed (true) or stored (false).
func FrameCompressed(frame []byte) bool {
	return len(frame) >= frameHeaderSize && frame[4]&flagGzip != 0
}

// readStep is the most readEnvelope allocates for a frame before any of
// its payload has arrived; each further step at most doubles what has
// arrived. A peer that announces a large frame and stalls pins about
// what it sent, not what it announced, and a frame of up to readStep
// bytes is still read into one allocation.
const readStep = 64 << 10

// readEnvelope reads one frame from r and decodes it, reading its header
// into hdr. It blocks until a full frame is available or the stream ends.
func readEnvelope(r io.Reader, hdr *[frameHeaderSize]byte) (*Envelope, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 {
		return nil, errBadFrame // the length counts the flags byte just read
	}
	if n > MaxFrameSize {
		return nil, errFrameTooLarge
	}
	// payload is this envelope's alone: its Body is a view of it.
	want := int(n - 1)
	payload := make([]byte, min(want, readStep))
	for have := 0; ; {
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, fmt.Errorf("wire: short frame: %w", err)
		}
		if len(payload) == want {
			return decodeFlagged(hdr[4], payload)
		}
		have = len(payload)
		next := min(want, 2*have)
		payload = slices.Grow(payload, next-have)[:next]
	}
}

// maxPooledBuffer is the largest buffer PutBuffer keeps: a larger one,
// an agent's shipped class say, is left to the collector rather than
// held for the rare frame that needs it.
const maxPooledBuffer = 64 << 10

// buffers holds empty buffers for bytes that are dead once copied on: a
// frame after its one write, a result body once its frame is encoded.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns an empty buffer to append a frame or a body to. Give
// it back with PutBuffer once its bytes have been copied on.
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer zeroes b and puts it back in the pool; the caller must not
// read it again. Zeroed, no requester's answer waits in the pool for the
// next user, and a buffer read after it went back reads as zeros, which
// every decoder refuses, instead of as someone else's bytes. The whole
// capacity is zeroed, not just the length: a deflated frame is cut short
// over the raw body it was encoded from, which stays behind its end.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	clear((*b)[:cap(*b)])
	buffers.Put(b)
}

// Conn wraps a bidirectional byte stream with buffered envelope I/O.
type Conn struct {
	br *bufio.Reader
	bw *bufio.Writer
	// hdr is read into by every Recv: held here, it is allocated once per
	// connection, where a local would escape through io.Reader once per
	// frame.
	hdr [frameHeaderSize]byte
}

// NewConn wraps rw for envelope exchange.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{br: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
}

// Send encodes, writes and flushes one envelope.
func (c *Conn) Send(e *Envelope) error {
	frame, err := EncodeEnvelope(e)
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Recv reads the next envelope.
func (c *Conn) Recv() (*Envelope, error) { return readEnvelope(c.br, &c.hdr) }
