// Package wiretest holds the checks every package that describes wire
// messages runs over its own table of them, one populated instance per
// message: committed bytes (testdata/payloads.golden, the fuzz corpus
// seeds), round trips, version tolerance, hostile counts and the package
// fuzz target. Run a package's tests with -update to rewrite the
// committed bytes after a reviewed format change.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/payloads.golden and the fuzz corpus seeds")

// Case is one message of a package's table.
type Case struct {
	Name string
	// Version is the version this build emits in the field the payload
	// leads with; 0 for a payload without one.
	Version uint64
	// Msg has every field populated and every list non-empty.
	Msg wire.Message
	// New returns a zero message of Msg's type.
	New func() wire.Message
	// Seed is what the committed corpus file Name-v<Version> encodes, for
	// the seeds written before Msg populated every field; nil means Msg.
	Seed wire.Message
}

// Of builds the Case of a message from its populated instance.
func Of[T any, P interface {
	*T
	wire.Message
}](name string, version uint64, msg P) Case {
	return Case{Name: name, Version: version, Msg: msg, New: func() wire.Message { return P(new(T)) }}
}

// Seeded returns c with Seed set.
func (c Case) Seeded(seed wire.Message) Case {
	c.Seed = seed
	return c
}

// show renders a message for comparison and for failure output; messages
// hold no pointers, so equal renderings are equal messages.
func show(m wire.Message) string { return fmt.Sprintf("%+v", m) }

// input is a fuzz input for message i of the table: a selector byte when
// the table has more than one message, then the payload.
func input(cases []Case, i int, payload []byte) []byte {
	if len(cases) == 1 {
		return payload
	}
	return append([]byte{byte(i)}, payload...)
}

// newer is payload as a build one version ahead would send it: the leading
// version raised, a field this build does not know appended.
func newer(c Case, payload []byte) []byte {
	_, n := binary.Uvarint(payload)
	return append(append(binary.AppendUvarint(nil, c.Version+1), payload[n:]...), 0xAA, 0xBB)
}

// Golden demands that testdata/payloads.golden holds the encoding of
// every Msg, one "name hex" line each, in table order.
func Golden(t *testing.T, cases []Case) {
	t.Helper()
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "%s %s\n", c.Name, hex.EncodeToString(wire.Marshal(c.Msg)))
	}
	compare(t, filepath.Join("testdata", "payloads.golden"), b.String())
}

// Seeds demands that the corpus directory of the fuzz target Fuzz(f, cases)
// holds exactly one seed per versioned message, Name-v<Version>, equal to a
// fresh encoding.
func Seeds(t *testing.T, target string, cases []Case) {
	t.Helper()
	seeds := make(map[string][]byte)
	for i, c := range cases {
		if c.Version == 0 {
			continue
		}
		m := c.Seed
		if m == nil {
			m = c.Msg
		}
		seeds[fmt.Sprintf("%s-v%d", c.Name, c.Version)] = input(cases, i, wire.Marshal(m))
	}
	Corpus(t, target, seeds)
}

// Corpus demands that testdata/fuzz/<target> holds exactly the named
// seeds, each file the Go corpus encoding of its bytes.
func Corpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for name, seed := range seeds {
		compare(t, filepath.Join(dir, name), fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed))))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := seeds[f.Name()]; !ok {
			t.Errorf("%s: a committed seed no table entry encodes", filepath.Join(dir, f.Name()))
		}
	}
}

func compare(t *testing.T, path, want string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the package's tests with -update to write it)", err)
	}
	if string(got) != want {
		t.Errorf("%s drifted from a fresh encoding:\n--- committed ---\n%s--- fresh ---\n%s", path, got, want)
	}
}

// RoundTrip: every Msg decodes back to itself — a field the description
// leaves out comes back zero and fails here — the zero message round-trips
// too, and neither a byte more nor any strict prefix of the payload decodes.
func RoundTrip(t *testing.T, cases []Case) {
	t.Helper()
	for _, c := range cases {
		for _, m := range []wire.Message{c.Msg, c.New()} {
			payload, got := wire.Marshal(m), c.New()
			if err := wire.Unmarshal(payload, got); err != nil || show(got) != show(m) {
				t.Errorf("%s: %s came back as %s (%v)", c.Name, show(m), show(got), err)
			}
		}
		payload := wire.Marshal(c.Msg)
		if err := wire.Unmarshal(append(payload, 0xAA), c.New()); err == nil {
			t.Errorf("%s: a trailing byte was accepted", c.Name)
		}
		for n := range payload {
			if err := wire.Unmarshal(payload[:n], c.New()); err == nil {
				t.Errorf("%s: the first %d of %d bytes decoded", c.Name, n, len(payload))
			}
		}
	}
}

// Versions: a versioned payload from a newer sender decodes, known fields
// intact, whatever trails them; cut short it still fails.
func Versions(t *testing.T, cases []Case) {
	t.Helper()
	for _, c := range cases {
		if c.Version == 0 {
			continue
		}
		payload := newer(c, wire.Marshal(c.Msg))
		got := c.New()
		if err := wire.Unmarshal(payload, got); err != nil {
			t.Errorf("%s: a newer version's payload was rejected: %v", c.Name, err)
		} else if known := payload[:len(payload)-2]; !bytes.Equal(wire.Marshal(got), known) {
			t.Errorf("%s: known fields of a newer version misparsed: %s", c.Name, show(got))
		}
		if err := wire.Unmarshal(payload[:len(payload)-3], c.New()); err == nil {
			t.Errorf("%s: a truncated newer-version payload decoded", c.Name)
		}
	}
}

// Hostile feeds unmarshal bodies that announce far more than they carry:
// the zero encoding of every message, cut at each position and ended with
// a count of wire.MaxFrameSize — a list count among them. Each must be
// refused with sentinel (any error when nil), or be a message no larger
// than the body, for under 4 KB allocated; the table must take under
// 100 ms.
func Hostile(t *testing.T, cases []Case, unmarshal func([]byte, wire.Message) error, sentinel error) {
	t.Helper()
	start := time.Now()
	huge := binary.AppendUvarint(nil, wire.MaxFrameSize)
	for _, c := range cases {
		zero := wire.Marshal(c.New())
		for i := range zero {
			body, m := append(zero[:i:i], huge...), c.New()
			// TotalAlloc is the whole process's: a reading other goroutines
			// inflated is taken again.
			var before, after runtime.MemStats
			var err error
			cost := uint64(math.MaxUint64)
			for try := 0; try < 3 && cost > 4<<10; try++ {
				runtime.ReadMemStats(&before)
				err = unmarshal(body, m)
				runtime.ReadMemStats(&after)
				cost = after.TotalAlloc - before.TotalAlloc
			}
			switch {
			case cost > 4<<10:
				t.Errorf("%s: body %x cost %d B", c.Name, body, cost)
			case err == nil && len(wire.Marshal(m)) > len(body):
				t.Errorf("%s: body %x decoded as %s", c.Name, body, show(m))
			case err != nil && sentinel != nil && !errors.Is(err, sentinel):
				t.Errorf("%s: body %x: %v does not wrap %v", c.Name, body, err, sentinel)
			}
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("the hostile table took %v", d)
	}
}

// Fuzz is a package's fuzz target over its table: arbitrary bytes never
// panic Unmarshal, and what decodes re-encodes to a payload that decodes
// to the same message. The seeds are every Msg and, for the versioned
// ones, a newer sender's form of it.
func Fuzz(f *testing.F, cases []Case) {
	for i, c := range cases {
		payload := wire.Marshal(c.Msg)
		f.Add(input(cases, i, payload))
		if c.Version > 0 {
			f.Add(input(cases, i, newer(c, payload)))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := cases[0]
		if len(cases) > 1 {
			if len(data) == 0 {
				return
			}
			c, data = cases[int(data[0])%len(cases)], data[1:]
		}
		m, back := c.New(), c.New()
		if wire.Unmarshal(data, m) != nil {
			return
		}
		if err := wire.Unmarshal(wire.Marshal(m), back); err != nil || show(back) != show(m) {
			t.Fatalf("%s: %s re-encoded and came back as %s (%v)", c.Name, show(m), show(back), err)
		}
	})
}
