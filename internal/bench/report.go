package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Render writes the figure as an aligned text table: one row per distinct
// X value, one column per series. Step-style series (Figures 6/7) render
// each sample row.
func (f *figure) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title)

	// Collect the union of X values.
	xsSet := make(map[float64]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	// Header.
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(cols)
	seps := make([]string, len(cols))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range rows {
		line(row)
	}
	fmt.Fprintf(w, "  (y = %s)\n\n", f.YLabel)
}

// trimFloat prints a float without trailing zero noise.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// SeriesByName returns the named series, or nil.
func (f *figure) SeriesByName(name string) *series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// YAt returns the series' Y value at x (false if absent).
func (s *series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Last returns the final point of the series.
func (s *series) Last() point {
	if len(s.Points) == 0 {
		return point{}
	}
	return s.Points[len(s.Points)-1]
}
