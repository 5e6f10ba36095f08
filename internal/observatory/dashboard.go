package observatory

import (
	"fmt"
	"sort"
	"strings"
)

// sparkTicks are the eight block glyphs a sparkline is drawn with.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values min-max normalized into block glyphs; a
// flat series renders as a run of the lowest glyph.
func sparkline(points []TSPoint, width int) string {
	points = downsample(points, width)
	if len(points) == 0 {
		return ""
	}
	lo, hi := points[0].V, points[0].V
	for _, p := range points {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	var b strings.Builder
	for _, p := range points {
		i := 0
		if hi > lo {
			i = int((p.V - lo) / (hi - lo) * float64(len(sparkTicks)-1))
		}
		b.WriteRune(sparkTicks[i])
	}
	return b.String()
}

// renderDashboard draws the fleet health view as plain text: one
// section per member with each derived series' sparkline and latest
// value, then the firing alerts, then the rule set.
func renderDashboard(c *Collector) string {
	h := c.health
	view := h.view()
	var b strings.Builder
	fmt.Fprintf(&b, "fleet health · %d members · %d firing\n",
		len(view.Members), len(view.Active))
	if !view.At.IsZero() {
		fmt.Fprintf(&b, "as of %s\n", view.At.UTC().Format("2006-01-02 15:04:05.000"))
	}

	members := make([]string, 0, len(view.Members))
	for m := range view.Members {
		members = append(members, m)
	}
	sort.Strings(members)
	for _, m := range members {
		mh := view.Members[m]
		marker := " "
		if len(mh.Alerts) > 0 {
			marker = "!"
		}
		fmt.Fprintf(&b, "\n%s %s\n", marker, m)
		for _, name := range h.Series().Names(m) {
			pts := h.Series().Points(m, name)
			last := 0.0
			if n := len(pts); n > 0 {
				last = pts[n-1].V
			}
			fmt.Fprintf(&b, "  %-24s %-32s %g\n", name, sparkline(pts, 32), last)
		}
	}

	b.WriteString("\nalerts\n")
	if len(view.Active) == 0 {
		b.WriteString("  none firing\n")
	}
	for _, a := range view.Active {
		fmt.Fprintf(&b, "  ! %s on %s: %s=%g (threshold %g, since %s)",
			a.Rule, a.Member, a.Series, a.Value, a.Threshold,
			a.Since.UTC().Format("15:04:05"))
		if a.Exemplar != "" {
			fmt.Fprintf(&b, " trace /fleet/trace/%s", a.Exemplar)
		}
		b.WriteByte('\n')
	}

	b.WriteString("\nrules\n")
	for _, r := range view.Rules {
		cmp := ">"
		if r.Below {
			cmp = "<"
		}
		fmt.Fprintf(&b, "  %-24s %s %s %g for %s, clear at %g for %s\n",
			r.Name, r.Series, cmp, r.Fire, r.Hold, r.Clear, r.ClearHold)
	}
	return b.String()
}
