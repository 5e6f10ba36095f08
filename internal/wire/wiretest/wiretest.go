// Package wiretest holds the checks every package that puts payloads on
// the wire runs over its own table of them: the committed bytes of each
// payload (testdata/payloads.golden) and of each fuzz corpus seed
// (testdata/fuzz/<target>/<name>) equal a fresh encoding. Run a package's
// tests with -update to rewrite both after a reviewed format change.
package wiretest

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/payloads.golden and the fuzz corpus seeds")

// Payload is one named encoding.
type Payload struct {
	Name  string
	Bytes []byte
}

// Golden demands that testdata/payloads.golden holds exactly the given
// payloads, one "name hex" line each, in order.
func Golden(t *testing.T, payloads []Payload) {
	t.Helper()
	var b strings.Builder
	for _, p := range payloads {
		fmt.Fprintf(&b, "%s %s\n", p.Name, hex.EncodeToString(p.Bytes))
	}
	compare(t, filepath.Join("testdata", "payloads.golden"), b.String())
}

// Seeds demands that the corpus directory of the fuzz target holds
// exactly the given seeds, each file the Go corpus encoding of its bytes.
func Seeds(t *testing.T, target string, seeds []Payload) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	want := make(map[string]bool)
	for _, s := range seeds {
		want[s.Name] = true
		compare(t, filepath.Join(dir, s.Name),
			fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s.Bytes))))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !want[f.Name()] {
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
