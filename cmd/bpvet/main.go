// Command bpvet runs the project's invariant analyzers over the given
// packages and exits non-zero when any finding survives suppression.
//
// Usage:
//
//	bpvet [-list] [-dir dir] [packages]
//
// Packages follow the subset of go-tool patterns the repo uses: a
// directory path or a recursive ./... pattern (the default). Findings
// print as "file:line: [analyzer] message"; suppress an intentional
// violation with a `//bpvet:ignore <analyzer> rationale` comment on the
// offending line or the line above it — both the analyzer name and the
// rationale are mandatory, and malformed directives are themselves
// findings.
//
// Exit codes: 0 clean, 1 findings (including malformed ignores),
// 2 usage, loader or type-check failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bestpeer/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: 0 clean, 1 findings, 2 usage or
// load failure.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("bpvet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list the analyzers and their rules, then exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range vet.All() {
			fmt.Fprintf(out, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := vet.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(errOut, "bpvet:", err)
		return 2
	}

	diags := vet.Run(pkgs, vet.All())
	for _, d := range diags {
		fmt.Fprintf(out, "%s:%d: [%s] %s\n", relPath(*dir, d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "bpvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relPath shortens filenames to be relative to the working directory
// when possible, keeping output stable across checkouts.
func relPath(dir, filename string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(abs, filename)
	if err != nil || rel == "" {
		return filename
	}
	return rel
}
