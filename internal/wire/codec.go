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

// gzipEncoder is the reusable compressor state of one EncodeEnvelope
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

// EncodeEnvelope serializes the envelope into a self-delimiting frame:
//
//	uint32 length | uint8 flags | body
//
// where body is the envelope fields, gzip-compressed when that is tried
// (see mayCompress) and comes out smaller. The returned slice is freshly
// allocated.
func EncodeEnvelope(e *Envelope) ([]byte, error) {
	if !e.Kind.Valid() {
		return nil, fmt.Errorf("%w: invalid kind %d", errBadFrame, e.Kind)
	}
	// Each extension is encoded once: the emitted bytes are what is
	// length-checked.
	trace, span, qroute := e.extPayloads()
	if max(len(trace), len(span), len(qroute)) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: extension too large", errBadFrame)
	}
	size := e.wireSize(trace, span, qroute)
	// The body is laid out behind the reserved header, so a frame that
	// travels stored is finished in place.
	frame := encodeBody(make([]byte, frameHeaderSize, frameHeaderSize+size), e, trace, span, qroute)

	var flags byte
	if raw := frame[frameHeaderSize:]; len(raw) >= compressionThreshold && mayCompress(raw) {
		z := gzipEncoders.Get().(*gzipEncoder)
		z.buf.Reset()
		z.zw.Reset(&z.buf)
		_, err := z.zw.Write(raw)
		if err == nil {
			err = z.zw.Close()
		}
		// Only keep the compressed form when it actually shrinks.
		if err == nil && z.buf.Len() < len(raw) {
			frame = append(make([]byte, frameHeaderSize, frameHeaderSize+z.buf.Len()), z.buf.Bytes()...)
			flags |= flagGzip
		}
		gzipEncoders.Put(z) // also after an error: Reset re-arms it on the next Get
		if err != nil {
			return nil, fmt.Errorf("wire: compress: %w", err)
		}
	}
	if len(frame)-4 > MaxFrameSize {
		return nil, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-4))
	frame[4] = flags
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
// followed by the already encoded extension records (nil when absent).
func encodeBody(buf []byte, e *Envelope, trace, span, qroute []byte) []byte {
	buf = append(buf, byte(e.Kind), e.TTL, e.Hops)
	buf = append(buf, e.ID[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.From)))
	buf = append(buf, e.From...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.To)))
	buf = append(buf, e.To...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Body)))
	buf = append(buf, e.Body...)
	if e.Trace != nil {
		buf = appendExt(buf, extTrace, trace)
	}
	if e.Span != nil {
		buf = appendExt(buf, extSpan, span)
	}
	if e.QRoute != nil {
		buf = appendExt(buf, extQRoute, qroute)
	}
	return buf
}

// appendExt writes one (tag | length | payload) extension record.
func appendExt(buf []byte, tag uint8, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(payload)))
	return append(buf, payload...)
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

// writeEnvelope encodes the envelope and writes the frame to w.
func writeEnvelope(w io.Writer, e *Envelope) error {
	frame, err := EncodeEnvelope(e)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readEnvelope reads one frame from r and decodes it. It blocks until a
// full frame is available or the stream ends.
func readEnvelope(r io.Reader) (*Envelope, error) {
	var hdr [5]byte
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
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return decodeFlagged(hdr[4], payload)
}

// Conn wraps a bidirectional byte stream with buffered envelope I/O.
type Conn struct {
	br *bufio.Reader
	bw *bufio.Writer
}

// NewConn wraps rw for envelope exchange.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{br: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
}

// Send encodes, writes and flushes one envelope.
func (c *Conn) Send(e *Envelope) error {
	if err := writeEnvelope(c.bw, e); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Recv reads the next envelope.
func (c *Conn) Recv() (*Envelope, error) { return readEnvelope(c.br) }
