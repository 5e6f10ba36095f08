package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchGolden regenerates the committed churn, dht and nochurn
// (Figures 5–8, convergence, traffic) reports through the same
// NewReport/WriteFile path bpbench uses and demands byte equality. The
// simulator is a deterministic function of its seed, so any
// diff is a behaviour change — a reordered RNG draw, a reordered
// same-instant event, a changed float summation order — and must land as
// a reviewed regeneration of the committed file, never silently.
func TestBenchGolden(t *testing.T) {
	for _, g := range []struct{ fig, file string }{
		{"churn", "BENCH_PR9.json"},
		{"dht", "BENCH_PR10.json"},
		{"nochurn", "BENCH_PR5.json"},
	} {
		t.Run(g.fig, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", g.file))
			if err != nil {
				t.Fatalf("committed figure: %v", err)
			}
			rep, err := NewReport(g.fig, 1, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), g.file)
			if err := rep.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("-fig %s -seed 1 drifted from %s at line %d:\n  got  %s\n  want %s",
						g.fig, g.file, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("-fig %s -seed 1 drifted from %s: %d lines, committed has %d",
				g.fig, g.file, len(gl), len(wl))
		})
	}
}
