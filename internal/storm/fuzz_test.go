package storm

import (
	"bytes"
	"reflect"
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

// checkGatheredKeys holds the keys recordMatches gathers from one intact
// record to what the walker's skips rest on: they never excuse a query the
// record matches and, NUL bytes aside, excuse every query it does not —
// a field is compared whole, not as part of its neighbours. o is rec
// decoded, hit what recordMatches said without gathering.
func checkGatheredKeys(t *testing.T, o *Object, rec []byte, query string, hit bool) {
	t.Helper()
	q := strings.ToLower(query)
	var buf keyBuf
	buf.reset()
	if again, err := recordMatches(rec, q, &buf); err != nil || again != hit {
		t.Fatalf("recordMatches(%q) = %v, %v while gathering, %v without", query, again, err, hit)
	}
	keys := buf.keys()
	if keys == nil {
		if n := len(buf.names) + len(buf.keywords); n <= maxPageKeys {
			t.Fatalf("%d bytes of keys were not kept, the bound is %d", n, maxPageKeys)
		}
		return
	}
	excused := keys.excuses(q, "\x00"+q+"\x00")
	if hit && excused {
		t.Fatalf("keys %q excuse the query %q, which %+v matches", keys, query, o)
	}
	if !hit && !excused && q != "" && !strings.Contains(q+o.Name+strings.Join(o.Keywords, ""), "\x00") {
		t.Fatalf("keys %q do not excuse the query %q, which %+v does not match", keys, query, o)
	}
}

// FuzzRecordMatches holds recordMatches to its contract: for arbitrary
// record bytes and query it answers what decodeObject followed by
// Object.Matches answers, and it fails exactly when decodeObject fails;
// and the keys it gathers on the way to checkGatheredKeys.
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
		hit, err := recordMatches(rec, strings.ToLower(query), nil)
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
		checkGatheredKeys(t, o, rec, query, hit)
	})
}
