package agent

import (
	"strings"
	"testing"

	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
)

// FuzzDecodePacket: hostile agent packets must never panic; valid ones
// must re-encode faithfully.
func FuzzDecodePacket(f *testing.F) {
	a := &KeywordAgent{Query: "q"}
	st, _ := a.State()
	f.Add(EncodePacket(&Packet{Class: KeywordClass, State: st, Base: "b", Mode: 1}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			return
		}
		back, err := DecodePacket(EncodePacket(p))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Class != p.Class || back.Mode != p.Mode || back.Base != p.Base {
			t.Fatal("round trip changed packet")
		}
	})
}

// FuzzDecodeResults: result batches from hostile peers must never panic,
// and whatever a batch hands out as Data lies inside the input, clipped
// (cap == len) so that no append can reach the bytes behind it.
func FuzzDecodeResults(f *testing.F) {
	f.Add(EncodeResults([]Result{{Name: "n", Data: []byte("d")}}, 2,
		wire.BPID{LIGLO: "l", Node: 1}, "addr"))
	f.Add(EncodeResults([]Result{{Name: "hint"}, {Name: "n", Data: []byte("data")}, {Name: "m", Data: []byte{0}}}, 0,
		wire.BPID{}, ""))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeResults(data)
		if err != nil {
			return
		}
		for i, r := range batch.Results {
			if len(r.Data) == 0 && r.Data != nil {
				t.Fatalf("result %d: empty data is not nil", i)
			}
			if !inside(r.Data, data) || cap(r.Data) != len(r.Data) {
				t.Fatalf("result %d: inside the input = %v, len %d, cap %d", i, inside(r.Data, data), len(r.Data), cap(r.Data))
			}
		}
	})
}

// FuzzFingerprint: agents reconstructed from hostile packet state must
// fingerprint without panicking, and the Fingerprinter contract must
// hold — equal states yield equal keys, and keys and terms are already
// case-canonical (lowering them is a no-op).
func FuzzFingerprint(f *testing.F) {
	for _, ag := range []Agent{
		&KeywordAgent{Query: "Jazz Music"},
		&DigestAgent{Query: "needle"},
		&TopKAgent{Query: "Top", K: 3, IncludeData: true},
		&FilterAgent{Expr: "keyword=jazz & size>512"},
	} {
		st, err := ag.State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ag.Class(), st)
	}
	f.Add(KeywordClass, []byte{0xFF, 0x00})
	f.Add(filterClass, []byte{})
	reg := NewRegistry()
	if err := RegisterBuiltins(reg); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, class string, state []byte) {
		ag, err := reg.New(class, state)
		if err != nil {
			return
		}
		fp, ok := ag.(Fingerprinter)
		if !ok {
			return
		}
		key := fp.QueryKey()
		terms := fp.QueryTerms()
		if key != fp.QueryKey() {
			t.Fatal("QueryKey must be deterministic")
		}
		ag2, err := reg.New(class, state)
		if err != nil {
			t.Fatalf("same state failed to reconstruct twice: %v", err)
		}
		if k2 := ag2.(Fingerprinter).QueryKey(); k2 != key {
			t.Fatalf("same state, different keys: %q vs %q", key, k2)
		}
		if key != strings.ToLower(key) {
			t.Fatalf("key %q is not case-canonical", key)
		}
		for _, term := range terms {
			if term == "" {
				t.Fatal("empty routing term")
			}
			if term != strings.ToLower(term) {
				t.Fatalf("term %q is not case-canonical", term)
			}
		}
	})
}

// FuzzCompileFilter: arbitrary filter expressions must either compile or
// fail cleanly, and compiled predicates must be callable.
func FuzzCompileFilter(f *testing.F) {
	for _, seed := range []string{
		"keyword=jazz & size>512",
		"name~report | (keyword=finance & !data~draft)",
		"kind=active",
		"(((",
		"size>",
		"",
		`name="quoted value"`,
	} {
		f.Add(seed)
	}
	obj := &storm.Object{Name: "x", Keywords: []string{"k"}, Data: []byte("d")}
	f.Fuzz(func(t *testing.T, expr string) {
		pred, err := CompileFilter(expr)
		if err != nil {
			return
		}
		_ = pred(obj) // must not panic
	})
}
