package vet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden output files instead of comparing against
// them. CI runs the comparison and then `git diff --exit-code` on the
// golden directory, so a contributor who regenerates without reviewing
// the diff still can't land drift silently.
var update = flag.Bool("update", false, "rewrite testdata/golden output files")

// fixtureOutput renders one analyzer's findings over its fixture in the
// driver's canonical text form, with paths trimmed to the fixture tree
// so the output is checkout-independent.
func fixtureOutput(pkg *Package, a Analyzer) string {
	diags := Run([]*Package{pkg}, []Analyzer{a})
	var b strings.Builder
	for _, d := range diags {
		name := filepath.ToSlash(d.Pos.Filename)
		if i := strings.Index(name, "testdata/"); i >= 0 {
			name = name[i:]
		}
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", name, d.Pos.Line, d.Analyzer, d.Message)
	}
	return b.String()
}

// TestFixtureGolden pins each analyzer's full rendered output over its
// fixture to a committed golden file. Unlike the // want comparison,
// this catches wording and ordering drift, not just missing findings.
// Regenerate with:
//
//	go test ./internal/vet/ -run TestFixtureGolden -update
func TestFixtureGolden(t *testing.T) {
	names := suiteNames()
	fixtures := loadFixtures(t, names...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			pkg := fixtures[name]
			if pkg == nil {
				t.Fatalf("fixture package %q not loaded", name)
			}
			got := fixtureOutput(pkg, analyzerByName(t, name))
			golden := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("analyzer output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
