package storm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"bestpeer/internal/wire"
)

// ObjectKind distinguishes the sharing granularities of §3.2 of the paper.
type ObjectKind uint8

const (
	// StaticObject is a plain digital file shared in its entirety.
	StaticObject ObjectKind = iota
	// ActiveObject couples data elements with an active element: the name
	// of an executable "active node" that filters the content according
	// to the requester's access rights.
	ActiveObject
)

// String returns the symbolic kind name.
func (k ObjectKind) String() string {
	switch k {
	case StaticObject:
		return "static"
	case ActiveObject:
		return "active"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Object is the unit of sharable data a node stores in its StorM instance.
// In the paper's experiments each node stores 1000 objects of 1 KB each.
type Object struct {
	// Name identifies the object within its node.
	Name string
	// Keywords are the searchable terms agents match queries against.
	Keywords []string
	// Kind selects static versus active sharing.
	Kind ObjectKind
	// ActiveClass names the active element (a registered executable)
	// that mediates access to an active object. Empty for static objects.
	ActiveClass string
	// Data is the object content.
	Data []byte
}

// errBadObject reports a corrupt or oversized object record.
var errBadObject = errors.New("storm: bad object record")

// objectRecordVersion guards the record layout.
const objectRecordVersion = 1

// encodeObject serializes the object into a page record.
func encodeObject(o *Object) ([]byte, error) {
	var e wire.Encoder
	e.Uint8(objectRecordVersion)
	e.String(o.Name)
	e.Uint8(uint8(o.Kind))
	e.String(o.ActiveClass)
	e.Uvarint(uint64(len(o.Keywords)))
	for _, k := range o.Keywords {
		e.String(k)
	}
	e.Bytes2(o.Data)
	if e.Len() > maxRecordSize {
		return nil, fmt.Errorf("%w: %q encodes to %d bytes, max %d",
			errBadObject, o.Name, e.Len(), maxRecordSize)
	}
	return e.Bytes(), nil
}

// decodeObject parses a page record into an Object. With arena nil its
// Data is a fresh copy. Otherwise the data is appended to *arena and Data
// is a view of it clipped to its length (cap == len), so an append to Data
// reallocates instead of writing over what follows; a view stays valid
// when a later append moves the arena, since it keeps the old array.
func decodeObject(rec []byte, arena *[]byte) (*Object, error) {
	d := wire.NewDecoder(rec)
	if v := d.Uint8(); v != objectRecordVersion {
		return nil, fmt.Errorf("%w: record version %d", errBadObject, v)
	}
	o := &Object{Name: d.String()}
	o.Kind = ObjectKind(d.Uint8())
	o.ActiveClass = d.String()
	n := d.Uvarint()
	if n > maxRecordSize {
		return nil, errBadObject
	}
	if n > 0 {
		o.Keywords = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			o.Keywords = append(o.Keywords, d.String())
		}
	}
	data := d.BytesView()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadObject, err)
	}
	switch {
	case len(data) == 0:
	case arena == nil:
		o.Data = append([]byte(nil), data...)
	default:
		start := len(*arena)
		*arena = append(*arena, data...)
		o.Data = (*arena)[start:len(*arena):len(*arena)]
	}
	return o, nil
}

// Matches reports whether the object satisfies a keyword query: the query
// matches case-insensitively against any keyword or as a substring of the
// object name. This is the comparison the paper's StorM agent performs on
// every stored object.
func (o *Object) Matches(query string) bool {
	if query == "" {
		return false
	}
	q := strings.ToLower(query)
	for _, k := range o.Keywords {
		if strings.ToLower(k) == q {
			return true
		}
	}
	return strings.Contains(strings.ToLower(o.Name), q)
}

// recordMatches is decodeObject followed by Object.Matches, evaluated on
// the encoded record without materialising the object. q is the query
// already lower-cased (strings.ToLower). The contract, held by
// FuzzRecordMatches: for every rec and query the answer equals
// decodeObject(rec).Matches(query), and the error is decodeObject's own
// whenever — and only when — decodeObject fails, so a corrupt candidate
// fails a Match exactly as it fails a Scan. ASCII fields are compared in
// place; a field with a non-ASCII byte goes through strings.ToLower so
// multi-byte case pairs fold as Matches folds them.
func recordMatches(rec []byte, q string) (bool, error) {
	hit, ok := matchRecord(rec, q)
	if !ok {
		_, err := decodeObject(rec, nil)
		if err == nil {
			err = errBadObject // unreachable while the contract holds
		}
		return false, err
	}
	return hit, nil
}

// matchRecord walks the record layout of encodeObject; ok is false for a
// record decodeObject rejects.
func matchRecord(rec []byte, q string) (hit, ok bool) {
	name, ok := recordName(rec, func(k []byte) {
		hit = hit || (q != "" && lowerEquals(k, q))
	})
	if !ok {
		return false, false
	}
	return hit || (q != "" && lowerContains(name, q)), true
}

// recordName walks the whole record layout of encodeObject: recordKeys,
// then the data and nothing after it. It returns the name; ok is false for
// a record decodeObject rejects.
func recordName(rec []byte, keyword func(k []byte)) (name []byte, ok bool) {
	name, p, ok := recordKeys(rec, keyword)
	if !ok {
		return nil, false
	}
	if _, p, ok = recordField(rec, p); !ok || p != len(rec) {
		return nil, false // data, then nothing
	}
	return name, true
}

// recordKeys walks the record layout of encodeObject up to its data: it
// hands each keyword, as stored, to keyword and returns the name and the
// offset of the data field. ok is false where the layout breaks; the
// keywords ahead of the break have been handed over by then.
func recordKeys(rec []byte, keyword func(k []byte)) (name []byte, p int, ok bool) {
	if len(rec) == 0 || rec[0] != objectRecordVersion {
		return nil, 0, false
	}
	name, p, ok = recordField(rec, 1)
	if !ok || p == len(rec) {
		return nil, 0, false
	}
	p++ // the kind byte
	if _, p, ok = recordField(rec, p); !ok {
		return nil, 0, false // active class
	}
	keywords, w := binary.Uvarint(rec[p:])
	if w <= 0 || keywords > maxRecordSize {
		return nil, 0, false
	}
	p += w
	for ; keywords > 0; keywords-- {
		var k []byte
		if k, p, ok = recordField(rec, p); !ok {
			return nil, 0, false
		}
		keyword(k)
	}
	return name, p, true
}

// lowerBytes returns strings.ToLower(string(b)) as bytes, in place when b
// is ASCII.
func lowerBytes(b []byte) []byte {
	if !isASCII(b) {
		return []byte(strings.ToLower(string(b)))
	}
	for i, c := range b {
		b[i] = lowerASCII(c)
	}
	return b
}

// recordField reads the length-prefixed field at rec[p:] and returns it
// with the offset just past it.
func recordField(rec []byte, p int) (field []byte, next int, ok bool) {
	n, w := binary.Uvarint(rec[p:])
	if w <= 0 {
		return nil, 0, false
	}
	p += w
	if n > wire.MaxFrameSize || uint64(len(rec)-p) < n {
		return nil, 0, false
	}
	return rec[p : p+int(n)], p + int(n), true
}

// lowerEquals reports strings.ToLower(string(b)) == q.
func lowerEquals(b []byte, q string) bool {
	if !isASCII(b) {
		return strings.ToLower(string(b)) == q
	}
	return len(b) == len(q) && lowerHasPrefix(b, q)
}

// lowerContains reports strings.Contains(strings.ToLower(string(b)), q).
func lowerContains(b []byte, q string) bool {
	if !isASCII(b) {
		return strings.Contains(strings.ToLower(string(b)), q)
	}
	for ; len(b) >= len(q); b = b[1:] {
		if lowerHasPrefix(b, q) {
			return true
		}
	}
	return false
}

// lowerHasPrefix reports whether the ASCII bytes b, lower-cased, start
// with q. len(b) must be at least len(q).
func lowerHasPrefix(b []byte, q string) bool {
	for i := 0; i < len(q); i++ {
		if lowerASCII(b[i]) != q[i] {
			return false
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}
