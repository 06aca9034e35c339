// Package viz renders trace series as ASCII charts: the textual analogue
// of the Eclipse performance visualization tool (paper Figure 9, and the
// stream-buffer filling plots of Figure 10). The viewer is deliberately
// separate from the simulation (Section 7): it consumes trace.Series
// regardless of whether they came from a simulation run or from CSV.
package viz

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"eclipse/internal/trace"
)

// Chart renders one series as a fixed-size ASCII line chart with axes.
type Chart struct {
	Width  int // plot columns (excluding the axis gutter)
	Height int // plot rows
}

// DefaultChart returns a chart sized for 100-column terminals.
func DefaultChart() Chart { return Chart{Width: 72, Height: 12} }

// Render draws the series. Samples are bucketed onto columns by cycle;
// each column shows the bucket mean, with '█'-style fill below the curve
// rendered as '*' markers and ':' fill for readability in plain ASCII.
func (c Chart) Render(s *trace.Series, annot string) string {
	var sb strings.Builder
	if len(s.X) == 0 {
		fmt.Fprintf(&sb, "%s (no samples)\n", s.Name)
		return sb.String()
	}
	w, h := c.Width, c.Height
	if w < 8 {
		w = 8
	}
	if h < 3 {
		h = 3
	}
	x0, x1 := s.X[0], s.X[len(s.X)-1]
	span := x1 - x0
	if span == 0 {
		span = 1
	}
	// Bucket samples to columns.
	sum := make([]float64, w)
	cnt := make([]int, w)
	for i := range s.X {
		col := int(uint64(w-1) * (s.X[i] - x0) / span)
		sum[col] += s.Y[i]
		cnt[col]++
	}
	col := make([]float64, w)
	prev := 0.0
	maxV := 0.0
	for i := 0; i < w; i++ {
		if cnt[i] > 0 {
			prev = sum[i] / float64(cnt[i])
		}
		col[i] = prev
		if prev > maxV {
			maxV = prev
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	fmt.Fprintf(&sb, "%s  (max %.0f, mean %.0f)\n", s.Name, s.Max(), s.Mean())
	if annot != "" {
		fmt.Fprintf(&sb, "%9s %s\n", "", clip(annot, w))
	}
	for row := h - 1; row >= 0; row-- {
		lo := float64(row) / float64(h) * maxV
		mid := (float64(row) + 0.5) / float64(h) * maxV
		label := "        "
		if row == h-1 {
			label = fmt.Sprintf("%8.0f", maxV)
		} else if row == 0 {
			label = fmt.Sprintf("%8.0f", 0.0)
		}
		sb.WriteString(label)
		sb.WriteByte('|')
		for i := 0; i < w; i++ {
			switch {
			case col[i] >= mid && col[i] < mid+maxV/float64(h):
				sb.WriteByte('*')
			case col[i] >= mid:
				sb.WriteByte(':')
			case col[i] > lo:
				sb.WriteByte('*')
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%8s+%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&sb, "%9s%-*d%*d cycles\n", "", w/2, x0, w-w/2, x1)
	return sb.String()
}

// clip truncates a string to width characters.
func clip(s string, w int) string {
	if len(s) <= w {
		return s
	}
	return s[:w]
}

// Panel renders several series stacked vertically (the Figure 10 layout:
// one buffer-filling plot per coprocessor input stream, sharing the time
// axis), with an optional annotation line on the first chart.
func Panel(c Chart, annot string, series ...*trace.Series) string {
	var sb strings.Builder
	for i, s := range series {
		a := ""
		if i == 0 {
			a = annot
		}
		sb.WriteString(c.Render(s, a))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Bars renders a labeled horizontal bar chart (for utilization summaries,
// the "architecture view" of Figure 9). Values are fractions in [0, 1].
type BarItem struct {
	Label string
	Value float64
}

// RenderBars draws one bar per item, 50 columns full scale.
func RenderBars(items []BarItem) string {
	var sb strings.Builder
	width := 0
	for _, it := range items {
		if len(it.Label) > width {
			width = len(it.Label)
		}
	}
	for _, it := range items {
		v := it.Value
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		n := int(v*50 + 0.5)
		fmt.Fprintf(&sb, "%-*s |%-50s| %5.1f%%\n", width, it.Label,
			strings.Repeat("#", n), v*100)
	}
	return sb.String()
}

// Table renders a Markdown table with one cell per header column in every
// row. Cells are padded to their column's width so the source lines up as
// well, and a column that holds a number (a cell starting with a digit)
// is right-aligned.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	right := make([]bool, len(header))
	for _, r := range append([][]string{header}, rows...) {
		for c, cell := range r {
			width[c] = max(width[c], 3, utf8.RuneCountInString(cell))
		}
	}
	for _, r := range rows {
		for c, cell := range r {
			right[c] = right[c] || cell != "" && cell[0] >= '0' && cell[0] <= '9'
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for c, cell := range cells {
			pad := strings.Repeat(" ", width[c]-utf8.RuneCountInString(cell))
			if right[c] {
				cell = pad + cell
			} else {
				cell += pad
			}
			sb.WriteString("| " + cell + " ")
		}
		sb.WriteString("|\n")
	}
	line(header)
	rule := make([]string, len(header))
	for c := range rule {
		rule[c] = strings.Repeat("-", width[c])
		if right[c] {
			rule[c] = rule[c][1:] + ":"
		}
	}
	line(rule)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// CodeBlock fences ASCII art (a chart, a panel, a bar chart) as a Markdown
// code block, dropping the trailing blanks and blank lines it is padded
// with.
func CodeBlock(text string) string {
	var sb strings.Builder
	sb.WriteString("```text\n")
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		sb.WriteString(strings.TrimRight(l, " ") + "\n")
	}
	sb.WriteString("```\n")
	return sb.String()
}
