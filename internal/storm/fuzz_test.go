package storm

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeObject: arbitrary page records must never panic, and every
// successfully decoded object must survive an encode/decode round trip.
func FuzzDecodeObject(f *testing.F) {
	good, err := encodeObject(&Object{
		Name:        "report.txt",
		Keywords:    []string{"p2p", "storage"},
		Kind:        StaticObject,
		ActiveClass: "",
		Data:        []byte("shared bytes"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{objectRecordVersion})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeObject(data, nil)
		if err != nil {
			return
		}
		re, err := encodeObject(o)
		if err != nil {
			t.Fatalf("decoded object failed to re-encode: %v", err)
		}
		back, err := decodeObject(re, nil)
		if err != nil {
			t.Fatalf("re-encoded object failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back, o) {
			t.Fatal("object round trip changed the record")
		}
	})
}

// checkRecordKeys holds recordKeys, which the keyword twin reads records
// with, to decodeObject on a record it accepts, o: the name and exactly
// the object's keywords. Bound into a twin, the record is listed once
// under each distinct folded keyword, and unbound it leaves nothing.
func checkRecordKeys(t *testing.T, o *Object, rec []byte) {
	t.Helper()
	var keywords []string
	name, _, ok := recordKeys(rec, func(k []byte) { keywords = append(keywords, string(k)) })
	if !ok || string(name) != o.Name || !slices.Equal(keywords, o.Keywords) {
		t.Fatalf("recordKeys = %q, %q, %v; the record holds %+v", name, keywords, ok, o)
	}
	var twin keywordTwin
	oid := OID{Page: 3, Slot: 7}
	twin.bind(rec, oid)
	folded := make(map[string]bool)
	for _, k := range o.Keywords {
		folded[strings.ToLower(k)] = true
		if l := twin.lists[strings.ToLower(k)]; l == nil || !slices.Equal(*l, []OID{oid}) {
			t.Fatalf("the twin lists %v under %q of %+v", l, k, o)
		}
	}
	if len(twin.lists) != len(folded) {
		t.Fatalf("the twin has %d keywords for the %d of %+v", len(twin.lists), len(folded), o)
	}
	if twin.unbind(rec, oid); len(twin.lists) != 0 {
		t.Fatalf("unbound, the twin still lists %d keywords of %+v", len(twin.lists), o)
	}
}

// FuzzRecordMatches holds recordMatches to its contract: for arbitrary
// record bytes and query it answers what decodeObject followed by
// Object.Matches answers, and it fails exactly when decodeObject fails;
// and recordKeys to checkRecordKeys.
func FuzzRecordMatches(f *testing.F) {
	record := func(o *Object) []byte {
		rec, err := encodeObject(o)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	plain := record(&Object{Name: "Report-2002.txt", Keywords: []string{"p2p", "Storage"}, Data: []byte("shared bytes")})
	f.Add(plain, "storage")
	f.Add(plain, "REPORT")
	f.Add(plain, "port-2")
	f.Add(plain, "")
	f.Add(plain, "absent")
	// Case pairs whose folding changes the byte length, or has no ASCII
	// counterpart on one side: U+0130, the Kelvin sign, long s, sharp s.
	folds := record(&Object{Name: "İstanbul-Kelvin-ſ", Keywords: []string{"İ", "K", "ſ", "Straße"}, Kind: ActiveObject, ActiveClass: "filter"})
	for _, q := range []string{"i̇", "İ", "k", "K", "K", "s", "ſ", "straße", "STRASSE", "i̇stanbul", "istanbul", "kelvin-ſ"} {
		f.Add(folds, q)
	}
	f.Add([]byte("\x01\x02\xff\xfe\x00\x00\x01\x01\xff\x00"), "\xff")  // invalid UTF-8 in name and keyword
	f.Add(plain[:len(plain)-1], "p2p")                                 // truncated data
	f.Add(plain[:8], "p2p")                                            // truncated name
	f.Add(append(append([]byte(nil), plain...), 0), "p2p")             // trailing byte
	f.Add([]byte{objectRecordVersion + 1, 0, 0, 0, 0, 0}, "x")         // wrong version
	f.Add([]byte{objectRecordVersion, 0, 0, 0, 0xFF, 0xFF, 0x7F}, "x") // keyword count past the record
	f.Add([]byte{}, "x")
	f.Add(plain, "p2") // part of a keyword, and of no name
	f.Add(record(&Object{Name: "a\x00b", Keywords: []string{"k\x00w", "kw"}}), "k")

	f.Fuzz(func(t *testing.T, rec []byte, query string) {
		hit, err := recordMatches(rec, strings.ToLower(query))
		o, derr := decodeObject(rec, nil)
		if (err != nil) != (derr != nil) {
			t.Fatalf("recordMatches error %v, decodeObject error %v", err, derr)
		}
		if derr != nil {
			if err.Error() != derr.Error() || hit {
				t.Fatalf("recordMatches failed with %q (hit=%v), decodeObject with %q", err, hit, derr)
			}
			return
		}
		if want := o.Matches(query); hit != want {
			t.Fatalf("recordMatches(%q) = %v, Matches = %v for %+v", query, hit, want, o)
		}
		checkRecordKeys(t, o, rec)
	})
}
