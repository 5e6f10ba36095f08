package main

import (
	"bytes"
	"strings"
	"testing"
)

// fixtures lives under internal/vet; the driver tests run it from here
// via the -dir flag.
const fixtureDir = "../../internal/vet"

// TestRunReportsAndExitsNonZero drives the binary's run() over a fixture
// with known violations: findings must print in the canonical
// "file:line: [name] message" form and the exit code must be 1.
func TestRunReportsAndExitsNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixtureDir, "testdata/src/busypoll"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "[busypoll]") {
		t.Errorf("output missing [busypoll] tag:\n%s", got)
	}
	if !strings.Contains(got, "busypoll.go:") {
		t.Errorf("output missing file:line prefix:\n%s", got)
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %q", errOut.String())
	}
}

// TestRunCleanExitsZero drives run() over the suppress fixture, whose
// violations are all //bpvet:ignore'd: exit 0, no output.
func TestRunCleanExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixtureDir, "testdata/src/suppress"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no output, got:\n%s", out.String())
	}
}

// TestRunList checks -list names every analyzer.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"lockedsend", "nakedgo", "blockingsend", "busypoll", "droppederr", "lockorder", "goleak"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestRunBadPattern checks load failures exit 2.
func TestRunBadPattern(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", fixtureDir, "testdata/src/no-such-dir"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunUnknownFlagExitsTwo: -list and -dir are the whole interface; a
// run that tolerates findings, or reports them in another form, is not
// one bpvet offers.
func TestRunUnknownFlagExitsTwo(t *testing.T) {
	for _, flag := range []string{"-json", "-ignores", "-baseline=x.json", "-write-baseline=x.json"} {
		var out, errOut bytes.Buffer
		if code := run([]string{flag, "-dir", fixtureDir, "testdata/src/busypoll"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit code = %d, want 2", flag, code)
		}
	}
}

// TestRunTypeErrorExitsTwo drives run() over a fixture that fails
// type-checking: the loader error must surface on stderr and exit 2.
func TestRunTypeErrorExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixtureDir, "testdata/src/broken"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "type-checking") {
		t.Errorf("stderr missing type-check error: %q", errOut.String())
	}
}

// TestRunMalformedIgnoreExitsOne: bare or reasonless bpvet:ignore
// directives are findings of the pseudo-analyzer "ignore" and fail the
// run even when no analyzer fires.
func TestRunMalformedIgnoreExitsOne(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixtureDir, "testdata/src/badignore"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[ignore]") {
		t.Errorf("output missing [ignore] findings:\n%s", out.String())
	}
}
