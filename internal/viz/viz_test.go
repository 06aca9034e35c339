package viz

import (
	"strings"
	"testing"

	"eclipse/internal/trace"
)

func ramp(n int) *trace.Series {
	s := &trace.Series{Name: "ramp"}
	for i := 0; i < n; i++ {
		s.X = append(s.X, uint64(i*10))
		s.Y = append(s.Y, float64(i))
	}
	return s
}

func TestRenderBasics(t *testing.T) {
	out := DefaultChart().Render(ramp(100), "IPB")
	if !strings.Contains(out, "ramp") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "IPB") {
		t.Fatal("missing annotation")
	}
	if !strings.Contains(out, "cycles") {
		t.Fatal("missing axis label")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + annotation + height rows + axis + labels
	if len(lines) != 2+12+2 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// Rising ramp: last column painted near the top row, first not.
	top := lines[2]
	if !strings.ContainsAny(top, "*:") {
		t.Fatalf("top row empty:\n%s", out)
	}
}

func TestRenderEmptySeries(t *testing.T) {
	out := DefaultChart().Render(&trace.Series{Name: "void"}, "")
	if !strings.Contains(out, "no samples") {
		t.Fatalf("out = %q", out)
	}
}

func TestRenderConstantZero(t *testing.T) {
	s := &trace.Series{Name: "zero", X: []uint64{0, 1, 2}, Y: []float64{0, 0, 0}}
	out := DefaultChart().Render(s, "")
	if !strings.Contains(out, "zero") {
		t.Fatal("missing title")
	}
}

func TestRenderSingleSample(t *testing.T) {
	s := &trace.Series{Name: "one", X: []uint64{5}, Y: []float64{3}}
	out := DefaultChart().Render(s, "")
	if !strings.Contains(out, "one") {
		t.Fatal("missing title")
	}
}

func TestTinyChartClamps(t *testing.T) {
	out := Chart{Width: 1, Height: 1}.Render(ramp(5), "")
	if out == "" {
		t.Fatal("no output")
	}
}

func TestPanelStacksSeries(t *testing.T) {
	out := Panel(DefaultChart(), "GOP", ramp(10), ramp(10))
	if strings.Count(out, "ramp") != 2 {
		t.Fatal("panel must render both series")
	}
	if strings.Count(out, "GOP") != 1 {
		t.Fatal("annotation only on the first chart")
	}
}

func TestRenderBars(t *testing.T) {
	out := RenderBars([]BarItem{
		{Label: "vld", Value: 0.5},
		{Label: "dct", Value: 1.2},  // clamps to 100%
		{Label: "mc", Value: -0.25}, // clamps to 0%
	})
	if !strings.Contains(out, "vld") || !strings.Contains(out, "50.0%") {
		t.Fatalf("out:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Fatal("over-unity not clamped in label")
	}
	if !strings.Contains(out, "0.0%") {
		t.Fatal("negative not clamped")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(line) == 0 {
			t.Fatal("empty line")
		}
	}
}

func TestTable(t *testing.T) {
	got := Table([]string{"config", "cycles", "×"}, [][]string{
		{"small", "130240", "1.00×"},
		{"large", "deadlock", "-"},
	})
	want := "" +
		"| config |   cycles |     × |\n" +
		"| ------ | -------: | ----: |\n" +
		"| small  |   130240 | 1.00× |\n" +
		"| large  | deadlock |     - |\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCodeBlock(t *testing.T) {
	got := CodeBlock("  a  \n b\n\n\n")
	if want := "```text\n  a\n b\n```\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestClip(t *testing.T) {
	if clip("hello", 3) != "hel" || clip("hi", 5) != "hi" {
		t.Fatal("clip broken")
	}
}
