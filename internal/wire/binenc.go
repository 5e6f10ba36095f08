package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// errTruncated is returned when a reader runs out of input mid-field.
var errTruncated = errors.New("wire: truncated payload")

// maxFieldLen bounds variable-length fields inside payloads so a corrupt
// length prefix cannot trigger a giant allocation.
const maxFieldLen = MaxFrameSize

// Encoder builds payload bodies field by field. The zero value is ready to
// use. All integers are encoded as unsigned varints; signed values use
// zig-zag encoding.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so a caller that knows (a bound on)
// the payload size allocates once instead of growing by doubling.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// msgID appends a fixed-width message identifier.
func (e *Encoder) msgID(id MsgID) { e.buf = append(e.buf, id[:]...) }

// BPID appends a BestPeer identity.
func (e *Encoder) BPID(b BPID) {
	e.String(b.LIGLO)
	e.Uvarint(b.Node)
}

// Decoder consumes payload bodies produced by Encoder. Methods record the
// first error and subsequently return zero values, so callers may decode a
// whole struct and check Err once.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder wraps a payload body.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Finish returns an error if decoding failed or trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.pos)
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.BytesView()) }

// Bytes2 reads a length-prefixed byte slice (copied out of the buffer).
func (d *Decoder) Bytes2() []byte { return append([]byte(nil), d.BytesView()...) }

// BytesView reads a length-prefixed byte slice without copying: the
// result is a capacity-clipped view of the decoder's input (nil when
// empty), valid and immutable for as long as that input is. It is for
// payloads large enough that the copy shows; Bytes2 is the default.
func (d *Decoder) BytesView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxFieldLen || uint64(len(d.buf)-d.pos) < n {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	d.pos += int(n)
	return d.buf[d.pos-int(n) : d.pos : d.pos]
}

// msgID reads a fixed-width message identifier.
func (d *Decoder) msgID() MsgID {
	var id MsgID
	if d.err != nil || len(d.buf)-d.pos < len(id) {
		d.fail()
		return id
	}
	copy(id[:], d.buf[d.pos:])
	d.pos += len(id)
	return id
}

// BPID reads a BestPeer identity.
func (d *Decoder) BPID() BPID {
	return BPID{LIGLO: d.String(), Node: d.Uvarint()}
}
