package vet

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// analyzerByName returns the suite analyzer with the given name.
func analyzerByName(t *testing.T, name string) Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// suiteNames lists the suite's analyzers in All's order; each has a
// fixture package of the same name under testdata/src.
func suiteNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name())
	}
	return names
}

// loadFixtures loads every testdata/src fixture package in one shot so
// the stdlib importer is shared across subtests.
func loadFixtures(t *testing.T, names ...string) map[string]*Package {
	t.Helper()
	patterns := make([]string, len(names))
	for i, n := range names {
		patterns[i] = "testdata/src/" + n
	}
	pkgs, err := Load(".", patterns)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byName := make(map[string]*Package)
	for _, p := range pkgs {
		parts := strings.Split(p.Path, "/")
		byName[parts[len(parts)-1]] = p
	}
	return byName
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// wantsOf extracts `// want `re“ expectations from a fixture package,
// keyed by "file:line".
func wantsOf(pkg *Package) map[string]*regexp.Regexp {
	wants := make(map[string]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = regexp.MustCompile(m[1])
			}
		}
	}
	return wants
}

// TestAnalyzersGolden runs each analyzer over its fixture package and
// compares findings against the fixture's // want expectations, both
// ways: every finding must be expected, every expectation must fire.
func TestAnalyzersGolden(t *testing.T) {
	names := suiteNames()
	fixtures := loadFixtures(t, names...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			pkg := fixtures[name]
			if pkg == nil {
				t.Fatalf("fixture package %q not loaded", name)
			}
			a := analyzerByName(t, name)
			diags := Run([]*Package{pkg}, []Analyzer{a})
			wants := wantsOf(pkg)
			matched := make(map[string]bool)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				re, ok := wants[key]
				if !ok {
					t.Errorf("unexpected finding at %s: %s", key, d.Message)
					continue
				}
				if !re.MatchString(d.Message) {
					t.Errorf("finding at %s does not match want %q: got %q", key, re, d.Message)
				}
				matched[key] = true
			}
			for key := range wants {
				if !matched[key] {
					t.Errorf("expected finding at %s never reported", key)
				}
			}
		})
	}
}

// TestSuppression runs the FULL suite over the suppress fixture, whose
// violations all carry //bpvet:ignore comments; nothing may survive.
func TestSuppression(t *testing.T) {
	fixtures := loadFixtures(t, "suppress")
	pkg := fixtures["suppress"]
	if pkg == nil {
		t.Fatal("suppress fixture not loaded")
	}
	diags := Run([]*Package{pkg}, All())
	for _, d := range diags {
		t.Errorf("suppressed finding leaked: %s", d)
	}
	// The same package with suppression disabled must report: prove the
	// fixture actually contains violations by counting raw findings.
	raw := rawFindings(pkg)
	if raw == 0 {
		t.Error("suppress fixture contains no violations; suppression test is vacuous")
	}
}

// rawFindings counts findings before suppression filtering.
func rawFindings(pkg *Package) int {
	var diags []Diagnostic
	var prog *program
	for _, a := range All() {
		switch an := a.(type) {
		case packageAnalyzer:
			pass := &pkgPass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.Path,
				Info:     pkg.Info,
				analyzer: a.Name(),
				out:      &diags,
			}
			an.Run(pass)
		case programAnalyzer:
			if prog == nil {
				prog = buildProgram([]*Package{pkg})
			}
			an.RunProgram(&progPass{Prog: prog, analyzer: a.Name(), out: &diags})
		}
	}
	return len(diags)
}

// TestParseIgnore pins the suppression comment grammar.
func TestParseIgnore(t *testing.T) {
	cases := []struct {
		comment   string
		want      []string
		reason    string
		directive bool
	}{
		{"//bpvet:ignore busypoll some rationale", []string{"busypoll"}, "some rationale", true},
		{"// bpvet:ignore nakedgo droppederr: both are intentional", []string{"nakedgo", "droppederr"}, "both are intentional", true},
		{"//bpvet:ignore busypoll, droppederr trailing commas ok", []string{"busypoll", "droppederr"}, "trailing commas ok", true},
		{"//bpvet:ignore", nil, "", true},
		{"//bpvet:ignore notananalyzer rationale", nil, "notananalyzer rationale", true},
		{"//bpvet:ignore busypoll", []string{"busypoll"}, "", true},
		{"// a normal comment", nil, "", false},
	}
	for _, c := range cases {
		got, reason, directive := parseIgnore(c.comment)
		if directive != c.directive {
			t.Errorf("parseIgnore(%q) directive = %v, want %v", c.comment, directive, c.directive)
			continue
		}
		if reason != c.reason {
			t.Errorf("parseIgnore(%q) reason = %q, want %q", c.comment, reason, c.reason)
		}
		if len(got) != len(c.want) {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.comment, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseIgnore(%q) = %v, want %v", c.comment, got, c.want)
			}
		}
	}
}

// TestMalformedIgnores pins the strict directive grammar: a bare ignore
// and an unknown-analyzer ignore both become unsuppressible findings of
// the pseudo-analyzer "ignore".
func TestMalformedIgnores(t *testing.T) {
	fixtures := loadFixtures(t, "badignore")
	pkg := fixtures["badignore"]
	if pkg == nil {
		t.Fatal("badignore fixture not loaded")
	}
	diags := Run([]*Package{pkg}, All())
	var ignoreFindings int
	for _, d := range diags {
		if d.Analyzer == "ignore" {
			ignoreFindings++
		}
	}
	if ignoreFindings != 3 {
		t.Errorf("got %d ignore-grammar findings, want 3: %v", ignoreFindings, diags)
	}
}

// TestSuiteNames pins the analyzer set the docs and Makefile refer to.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"lockedsend", "nakedgo", "blockingsend", "busypoll", "droppederr",
		"lockorder", "goleak",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has empty Doc", a.Name())
		}
	}
}

// TestLoadSkipsTestFiles ensures the loader never parses _test.go files:
// analyzers enforce production-code rules only.
func TestLoadSkipsTestFiles(t *testing.T) {
	pkgs, err := Load(".", []string{"."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("loader parsed test file %s", name)
			}
		}
	}
}
