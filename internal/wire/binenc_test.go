package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderAllFields(t *testing.T) {
	id := NewMsgID()
	bp := BPID{LIGLO: "l:9", Node: 77}

	var e Encoder
	e.Uvarint(300)
	e.Varint(-42)
	e.Uint8(7)
	e.Bool(true)
	e.Bool(false)
	e.String("keyword")
	e.Bytes2([]byte{1, 2, 3})
	e.msgID(id)
	e.BPID(bp)

	d := NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -42 {
		t.Fatalf("Varint = %d", v)
	}
	if v := d.Uint8(); v != 7 {
		t.Fatalf("Uint8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if v := d.String(); v != "keyword" {
		t.Fatalf("String = %q", v)
	}
	if b := d.Bytes2(); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("Bytes2 = %v", b)
	}
	if got := d.msgID(); got != id {
		t.Fatal("MsgID mismatch")
	}
	if got := d.BPID(); got != bp {
		t.Fatalf("BPID = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.String("hello")
	e.Uvarint(9)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.String()
		_ = d.Uvarint()
		if d.Err() == nil && cut < len(full) {
			// A prefix may decode the string but must then fail the uvarint,
			// except when cut==len(full).
			t.Fatalf("decoder accepted truncation to %d bytes", cut)
		}
	}
}

func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder(nil)
	_ = d.Uint8() // fails
	if d.Err() == nil {
		t.Fatal("expected error after reading empty buffer")
	}
	// Subsequent reads return zero values without panicking.
	if d.Uvarint() != 0 || d.String() != "" || d.Bytes2() != nil {
		t.Fatal("post-error reads should return zero values")
	}
	if d.msgID() != (MsgID{}) {
		t.Fatal("post-error MsgID should be zero")
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should report the sticky error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.Uint8(1)
	e.Uint8(2)
	d := NewDecoder(e.Bytes())
	_ = d.Uint8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should reject trailing bytes")
	}
	if d.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", d.Remaining())
	}
}

func TestDecoderCorruptLength(t *testing.T) {
	// A giant declared string length must not allocate or succeed.
	var e Encoder
	e.Uvarint(math.MaxUint32)
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestBinencProperties(t *testing.T) {
	strRT := func(s string) bool {
		var e Encoder
		e.String(s)
		d := NewDecoder(e.Bytes())
		return d.String() == s && d.Finish() == nil
	}
	if err := quick.Check(strRT, nil); err != nil {
		t.Fatalf("string round trip: %v", err)
	}

	intRT := func(u uint64, i int64) bool {
		var e Encoder
		e.Uvarint(u)
		e.Varint(i)
		d := NewDecoder(e.Bytes())
		return d.Uvarint() == u && d.Varint() == i && d.Finish() == nil
	}
	if err := quick.Check(intRT, nil); err != nil {
		t.Fatalf("int round trip: %v", err)
	}

	bpidRT := func(liglo string, node uint64) bool {
		var e Encoder
		e.BPID(BPID{LIGLO: liglo, Node: node})
		d := NewDecoder(e.Bytes())
		got := d.BPID()
		return got.LIGLO == liglo && got.Node == node && d.Finish() == nil
	}
	if err := quick.Check(bpidRT, nil); err != nil {
		t.Fatalf("bpid round trip: %v", err)
	}
}
