package eclipse

import (
	"fmt"
	"io"
	"slices"

	"eclipse/internal/trace"
	"eclipse/internal/viz"
)

// WriteReport prints the Figure 9 style performance views of a finished
// run as Markdown: the architecture view (coprocessor utilization, bus
// occupancy, cache behaviour) and the application view (per-task steps,
// switches, denied steps and run time).
func (s *System) WriteReport(w io.Writer) {
	now := s.K.Now()
	fmt.Fprintf(w, "Architecture view at cycle %d:\n\n", now)
	var bars []viz.BarItem
	for _, u := range s.Utilizations() {
		bars = append(bars, viz.BarItem{Label: u.Name + " busy", Value: u.Busy})
	}
	bars = append(bars,
		viz.BarItem{Label: "sram read bus", Value: s.SRAM.ReadPort().Utilization()},
		viz.BarItem{Label: "sram write bus", Value: s.SRAM.WritePort().Utilization()},
		viz.BarItem{Label: "system bus", Value: s.DRAM.ReadPort().Utilization()},
	)
	io.WriteString(w, viz.CodeBlock(viz.RenderBars(bars)))

	var caches [][]string
	names := s.CoproNames()
	slices.Sort(names)
	for _, n := range names {
		sh := s.Shell(n)
		r, wr := sh.ReadCacheStats(), sh.WriteCacheStats()
		ts := sh.TransportStats()
		pref := "-"
		if ts.PrefetchesIssued > 0 {
			pref = fmt.Sprintf("%d/%d", ts.PrefetchesIssued-ts.PrefetchesDropped, ts.PrefetchesIssued)
		}
		caches = append(caches, []string{n, fmt.Sprint(r.Hits), fmt.Sprint(r.Misses),
			fmt.Sprintf("%.1f%%", r.HitRate()*100), fmt.Sprint(r.Invalidations),
			fmt.Sprint(wr.Flushes), fmt.Sprint(r.Evictions + wr.Evictions), pref})
	}
	io.WriteString(w, "\n"+viz.Table([]string{"shell cache", "read hits", "read misses", "hit rate",
		"invalidations", "write flushes", "evictions", "prefetches used"}, caches))

	taskNames := make([]string, 0, len(s.tasks))
	for n := range s.tasks {
		taskNames = append(taskNames, n)
	}
	slices.Sort(taskNames)
	var tasks [][]string
	for _, n := range taskNames {
		st, _ := s.TaskStats(n)
		share := 0.0
		if now > 0 {
			share = float64(st.RunCycles) / float64(now)
		}
		tasks = append(tasks, []string{n, fmt.Sprint(st.Steps), fmt.Sprint(st.Switches),
			fmt.Sprint(st.DeniedSteps), fmt.Sprint(st.RunCycles), fmt.Sprintf("%.1f%%", share*100),
			fmt.Sprint(st.StepPercentile(0.5))})
	}
	io.WriteString(w, "\nApplication view:\n\n"+viz.Table([]string{"task", "steps", "switches",
		"denied", "run cycles", "share", "step p50"}, tasks))
}

// WriteCharts renders every collected trace series as an ASCII chart
// (the Figure 10 style application view).
func (s *System) WriteCharts(w io.Writer) {
	c := viz.DefaultChart()
	for _, name := range s.Collector.Names() {
		io.WriteString(w, c.Render(s.Collector.Series(name), ""))
		io.WriteString(w, "\n")
	}
}

// WriteTraceCSV exports all collected series in long-form CSV.
func (s *System) WriteTraceCSV(w io.Writer) error {
	return s.Collector.WriteCSV(w)
}

// ChartSeries renders one named series with an annotation line.
func (s *System) ChartSeries(w io.Writer, name, annot string) error {
	series := s.Collector.Series(name)
	if series == nil {
		return fmt.Errorf("eclipse: no trace series %q (have %v)", name, s.Collector.Names())
	}
	_, err := io.WriteString(w, viz.DefaultChart().Render(series, annot))
	return err
}

// Series exposes a collected trace series by name (nil if absent).
func (s *System) Series(name string) *trace.Series { return s.Collector.Series(name) }
