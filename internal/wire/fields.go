package wire

import "fmt"

// Message is a control payload described once: Fields visits every field
// in wire order, and the same body writes the payload or reads it back
// depending on the direction of f. A field one side forgets, reorders or
// gates differently cannot be written down.
type Message interface {
	Fields(f *Fields)
}

// Fields is the two-way field visitor a Message describes itself to. Each
// method takes a pointer: encoding appends *p and never writes through it
// (envelopes that share an extension are encoded concurrently), decoding
// stores into *p. Like Decoder it records the first error and reads zero
// values after it. Encoder and Decoder are held by value and the direction
// is a flag, so a Fields used through a concrete call stays on the
// caller's stack (the envelope extensions depend on that; see decodeBody).
type Fields struct {
	enc      Encoder
	dec      Decoder
	decoding bool
	newer    bool // Version read one above the caller's: trailing bytes are fields this build does not know
}

// Marshal encodes m.
func Marshal(m Message) []byte {
	var f Fields
	m.Fields(&f)
	return f.enc.buf
}

// Unmarshal decodes b into m. Bytes left over are an error unless the
// payload's Version says a newer build sent it.
func Unmarshal(b []byte, m Message) error {
	var f Fields
	f.decode(b)
	m.Fields(&f)
	return f.finish()
}

func (f *Fields) decode(b []byte) { f.dec.buf, f.decoding = b, true }

func (f *Fields) finish() error {
	if f.newer {
		return f.dec.Err()
	}
	return f.dec.Finish()
}

// Version visits the version field a growable payload leads with; current
// is the version this build emits. It is the only way to read a version:
// what a newer sender appended is tolerated, anything else trailing is not.
func (f *Fields) Version(p *uint64, current uint64) {
	f.Uvarint(p)
	f.newer = f.decoding && *p > current
}

// Uvarint visits an unsigned integer.
func (f *Fields) Uvarint(p *uint64) {
	if f.decoding {
		*p = f.dec.Uvarint()
	} else {
		f.enc.Uvarint(*p)
	}
}

// Int64 visits a signed integer.
func (f *Fields) Int64(p *int64) {
	if f.decoding {
		*p = f.dec.Varint()
	} else {
		f.enc.Varint(*p)
	}
}

// Int visits a signed integer held as an int.
func (f *Fields) Int(p *int) {
	if f.decoding {
		*p = int(f.dec.Varint())
	} else {
		f.enc.Varint(int64(*p))
	}
}

// Bool visits a boolean.
func (f *Fields) Bool(p *bool) {
	if f.decoding {
		*p = f.dec.Bool()
	} else {
		f.enc.Bool(*p)
	}
}

// String visits a length-prefixed string.
func (f *Fields) String(p *string) {
	if f.decoding {
		*p = f.dec.String()
	} else {
		f.enc.String(*p)
	}
}

// Bytes visits a length-prefixed byte slice. Decoding copies it out of the
// payload; no described field is a view.
func (f *Fields) Bytes(p *[]byte) {
	if f.decoding {
		*p = f.dec.Bytes2()
	} else {
		f.enc.Bytes2(*p)
	}
}

// MsgID visits a fixed-width message identifier.
func (f *Fields) MsgID(p *MsgID) {
	if f.decoding {
		*p = f.dec.MsgID()
	} else {
		f.enc.MsgID(*p)
	}
}

// BPID visits a BestPeer identity.
func (f *Fields) BPID(p *BPID) {
	if f.decoding {
		*p = f.dec.BPID()
	} else {
		f.enc.BPID(*p)
	}
}

// Strings visits a list of strings bounded only by the frame size.
func (f *Fields) Strings(p *[]string) {
	List(f, p, MaxFrameSize, func(s *string, f *Fields) { f.String(s) })
}

// List visits a count-prefixed list whose elements elem describes. The
// one list rule lives here: a decoded count above max, or above the bytes
// left (every element is at least one byte), is refused before anything
// is allocated; exactly count elements are allocated; decoding stops at
// the first error; an empty list decodes as nil.
func List[T any](f *Fields, p *[]T, max int, elem func(*T, *Fields)) {
	if !f.decoding {
		f.enc.Uvarint(uint64(len(*p)))
		for i := range *p {
			elem(&(*p)[i], f)
		}
		return
	}
	*p = nil
	n := f.dec.Uvarint()
	switch {
	case f.dec.err != nil || n == 0:
		return
	case n > uint64(max):
		f.dec.err = fmt.Errorf("wire: list of %d elements, limit %d", n, max)
		return
	case n > uint64(f.dec.Remaining()):
		f.dec.fail()
		return
	}
	list := make([]T, n)
	for i := range list {
		if elem(&list[i], f); f.dec.err != nil {
			return
		}
	}
	*p = list
}
