package agent

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
)

func testStore(t *testing.T) *storm.Store {
	t.Helper()
	s, err := storm.Open(filepath.Join(t.TempDir(), "a.storm"), storm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Put(&storm.Object{Name: "song-1", Keywords: []string{"jazz"}, Data: []byte("AAAA")})
	s.Put(&storm.Object{Name: "song-2", Keywords: []string{"rock"}, Data: []byte("BBBBBBBB")})
	s.Put(&storm.Object{Name: "jazz-notes", Keywords: []string{"notes"}, Data: []byte("CC")})
	return s
}

func TestRegistryRegisterAndNew(t *testing.T) {
	r := NewRegistry()
	if err := RegisterBuiltins(r); err != nil {
		t.Fatal(err)
	}
	if !r.Installed(KeywordClass) || !r.Known(KeywordClass) {
		t.Fatal("builtin not installed")
	}
	a := &KeywordAgent{Query: "jazz"}
	state, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.New(KeywordClass, state)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*KeywordAgent).Query != "jazz" {
		t.Fatalf("reconstructed query = %q", got.(*KeywordAgent).Query)
	}
	for _, class := range []string{KeywordClass, filterClass, digestClass, topKClass} {
		if !r.Installed(class) {
			t.Fatalf("builtin class %s not installed", class)
		}
	}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewKeywordFactory()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewKeywordFactory()); !errors.Is(err, errDuplicateName) {
		t.Fatalf("dup register: %v", err)
	}
	if err := r.RegisterDormant(NewKeywordFactory()); !errors.Is(err, errDuplicateName) {
		t.Fatalf("dup dormant: %v", err)
	}
}

func TestRegistryUnknownClass(t *testing.T) {
	r := NewRegistry()
	if _, err := r.New("nope", nil); !errors.Is(err, errUnknownClass) {
		t.Fatalf("New unknown: %v", err)
	}
	if _, err := r.Code("nope"); !errors.Is(err, errUnknownClass) {
		t.Fatalf("Code unknown: %v", err)
	}
	if err := r.Install("nope", nil); !errors.Is(err, errUnknownClass) {
		t.Fatalf("Install unknown: %v", err)
	}
}

func TestClassShippingLifecycle(t *testing.T) {
	origin := NewRegistry()
	RegisterBuiltins(origin)
	dest := NewRegistry()
	RegisterBuiltinsDormant(dest)

	// Dormant class refuses to execute.
	if dest.Installed(KeywordClass) {
		t.Fatal("dormant class reported installed")
	}
	if _, err := dest.New(KeywordClass, nil); !errors.Is(err, errNotInstalled) {
		t.Fatalf("dormant New: %v", err)
	}
	// Dormant node cannot serve code either.
	if _, err := dest.Code(KeywordClass); !errors.Is(err, errNotInstalled) {
		t.Fatalf("dormant Code: %v", err)
	}

	// Ship from origin and install.
	code, err := origin.Code(KeywordClass)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) == 0 {
		t.Fatal("empty class blob")
	}
	if err := dest.Install(KeywordClass, code); err != nil {
		t.Fatalf("install: %v", err)
	}
	if !dest.Installed(KeywordClass) {
		t.Fatal("install did not take effect")
	}
	// Now executable.
	a := &KeywordAgent{Query: "x"}
	st, _ := a.State()
	if _, err := dest.New(KeywordClass, st); err != nil {
		t.Fatalf("post-install New: %v", err)
	}
	// Re-install is a no-op.
	if err := dest.Install(KeywordClass, code); err != nil || !dest.Installed(KeywordClass) {
		t.Fatalf("re-install: %v", err)
	}
}

func TestInstallRejectsTamperedBlob(t *testing.T) {
	origin := NewRegistry()
	RegisterBuiltins(origin)
	dest := NewRegistry()
	RegisterBuiltinsDormant(dest)

	code, _ := origin.Code(KeywordClass)
	bad := append([]byte(nil), code...)
	bad[10] ^= 0xFF
	if err := dest.Install(KeywordClass, bad); !errors.Is(err, errBadClassBlob) {
		t.Fatalf("tampered blob: %v", err)
	}
	if err := dest.Install(KeywordClass, code[:len(code)-1]); !errors.Is(err, errBadClassBlob) {
		t.Fatalf("truncated blob: %v", err)
	}
	if dest.Installed(KeywordClass) {
		t.Fatal("bad blob installed anyway")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Class:       KeywordClass,
		State:       []byte{1, 2, 3},
		Base:        "base:4000",
		BaseID:      wire.BPID{LIGLO: "l:9", Node: 3},
		AccessLevel: 2,
		Mode:        2,
	}
	got, err := DecodePacket(EncodePacket(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("packet mismatch:\n have %+v\n want %+v", got, p)
	}
}

func TestPacketRejectsGarbage(t *testing.T) {
	if _, err := DecodePacket([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage packet accepted")
	}
	// Empty class is invalid.
	var e wire.Encoder
	e.String("")
	e.Bytes2(nil)
	e.String("b")
	e.BPID(wire.BPID{})
	e.Varint(0)
	e.Uint8(1)
	if _, err := DecodePacket(e.Bytes()); !errors.Is(err, errBadPacket) {
		t.Fatalf("empty class: %v", err)
	}
	p := &Packet{Class: "c"}
	if _, err := DecodePacket(append(EncodePacket(p), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	results := []Result{
		{Name: "a", Data: []byte("data-a")},
		{Name: "b"},
	}
	from := wire.BPID{LIGLO: "l", Node: 7}
	body := EncodeResults(results, 3, from, "peer:1")
	got, err := DecodeResults(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromAddr != "peer:1" || got.From != from || got.Hops != 3 {
		t.Fatalf("batch header: %+v", got)
	}
	if len(got.Results) != 2 || got.Results[0].Name != "a" ||
		!bytes.Equal(got.Results[0].Data, []byte("data-a")) || got.Results[1].Name != "b" {
		t.Fatalf("results: %+v", got.Results)
	}
	if _, err := DecodeResults([]byte{1}); err == nil {
		t.Fatal("garbage results accepted")
	}
}

// TestDecodeResultsHostileCount: an 8-byte body that announces
// wire.MaxFrameSize results is refused for what refusing costs, not for
// sixteen million appended zero results.
func TestDecodeResultsHostileCount(t *testing.T) {
	var e wire.Encoder
	e.String("")
	e.BPID(wire.BPID{})
	e.Varint(0)
	e.Uvarint(wire.MaxFrameSize)
	body := e.Bytes()
	start := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeResults(body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errBadPacket) {
		t.Fatalf("a %d-byte body announcing %d results: %v", len(body), wire.MaxFrameSize, err)
	}
	if cost, d := after.TotalAlloc-before.TotalAlloc, time.Since(start); cost > 4<<10 || d > 100*time.Millisecond {
		t.Fatalf("refusing it cost %d B and %v", cost, d)
	}
}

// inside reports whether view lies wholly within buf's memory.
func inside(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	v, b := uintptr(unsafe.Pointer(&view[0])), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return v >= b && v+uintptr(len(view)) <= b+uintptr(len(buf))
}

// TestDecodedDataIsAClippedView: each Result.Data is a view of the body
// (no copy), clipped so that append reallocates instead of writing into
// the next result's name and data; a result without data decodes to nil.
func TestDecodedDataIsAClippedView(t *testing.T) {
	results := []Result{
		{Name: "first", Data: bytes.Repeat([]byte{0xA1}, 1024)},
		{Name: "hint-only"},
		{Name: "second", Data: bytes.Repeat([]byte{0xB2}, 1024)},
		{Name: "third", Data: []byte("short")},
	}
	body := EncodeResults(results, 1, wire.BPID{}, "peer:1")
	pristine := bytes.Clone(body)
	batch, err := DecodeResults(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Results, results) {
		t.Fatalf("results: %+v", batch.Results)
	}
	for i, r := range batch.Results {
		if r.Data == nil {
			continue
		}
		if !inside(r.Data, body) || cap(r.Data) != len(r.Data) {
			t.Fatalf("result %d: inside the body = %v, len %d, cap %d", i, inside(r.Data, body), len(r.Data), cap(r.Data))
		}
		grown := append(r.Data, "written behind this result's data"...)
		if inside(grown[:1], body) {
			t.Fatalf("result %d: append did not reallocate", i)
		}
	}
	if !bytes.Equal(body, pristine) || !reflect.DeepEqual(batch.Results, results) {
		t.Fatal("append to one result's data wrote into the body behind it")
	}
}

func TestKeywordAgentExecute(t *testing.T) {
	store := testStore(t)
	a := &KeywordAgent{Query: "jazz"}
	res, err := a.Execute(&Context{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// keyword "jazz" matches song-1, name substring matches jazz-notes.
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Name] = true
	}
	if !names["song-1"] || !names["jazz-notes"] {
		t.Fatalf("wrong matches: %v", names)
	}
}

func TestFilterAgentExecute(t *testing.T) {
	store := testStore(t)
	a := &FilterAgent{Expr: "size>4 & !keyword=jazz", IncludeData: true}
	res, err := a.Execute(&Context{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "song-2" {
		t.Fatalf("results = %+v", res)
	}
	if len(res[0].Data) != 8 {
		t.Fatal("IncludeData not honoured")
	}
	// Names-only mode.
	a.IncludeData = false
	res, _ = a.Execute(&Context{Store: store})
	if len(res) != 1 || res[0].Data != nil {
		t.Fatalf("names-only results = %+v", res)
	}
}

func TestFilterAgentRefusesBadExpression(t *testing.T) {
	a := &FilterAgent{Expr: "size>>bogus"}
	if _, err := a.State(); err == nil {
		t.Fatal("bad expression shipped")
	}
	f := NewFilterFactory()
	var e wire.Encoder
	e.String("nonsense((")
	e.Bool(false)
	if _, err := f.New(e.Bytes()); err == nil {
		t.Fatal("bad expression reconstructed")
	}
}

func TestDigestAgentExecute(t *testing.T) {
	store := testStore(t)
	a := &DigestAgent{Query: "rock"}
	res, err := a.Execute(&Context{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	want := fmt.Sprintf("song-2 8 %08x", crc32ChecksumIEEE([]byte("BBBBBBBB")))
	if string(res[0].Data) != want {
		t.Fatalf("digest = %q, want %q", res[0].Data, want)
	}
}

func TestAgentStateRoundTripAllBuiltins(t *testing.T) {
	agents := []Agent{
		&KeywordAgent{Query: "q"},
		&FilterAgent{Expr: "size>1", IncludeData: true},
		&DigestAgent{Query: "d"},
	}
	r := NewRegistry()
	RegisterBuiltins(r)
	for _, a := range agents {
		st, err := a.State()
		if err != nil {
			t.Fatalf("%s State: %v", a.Class(), err)
		}
		got, err := r.New(a.Class(), st)
		if err != nil {
			t.Fatalf("%s New: %v", a.Class(), err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("%s reconstructed %+v != %+v", a.Class(), got, a)
		}
	}
}

func TestFactoriesRejectCorruptState(t *testing.T) {
	for _, f := range []Factory{NewKeywordFactory(), NewFilterFactory(), NewDigestFactory()} {
		if _, err := f.New([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
			t.Fatalf("%s accepted corrupt state", f.Class())
		}
	}
}

func TestClassBlobDeterministicAndDistinct(t *testing.T) {
	a1 := NewKeywordFactory().Code()
	a2 := NewKeywordFactory().Code()
	if !bytes.Equal(a1, a2) {
		t.Fatal("class blob not deterministic")
	}
	b := NewFilterFactory().Code()
	if bytes.Equal(a1, b) {
		t.Fatal("distinct classes share a blob")
	}
	if !bytes.HasPrefix(a1, []byte(KeywordClass)) {
		t.Fatal("blob not self-describing")
	}
}

// crc32ChecksumIEEE mirrors the digest computation for expectation
// building.
func crc32ChecksumIEEE(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}
