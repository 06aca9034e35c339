// Command eclipse-bench regenerates the experiments of the paper's
// evaluation and prints each one as Markdown, exactly the block that
// EXPERIMENTS.md holds for it between its eclipse-bench markers:
//
//	eclipse-bench [name|all]
//
// The experiments table below names every experiment, in EXPERIMENTS.md
// order; an unknown name prints the list. TestExperimentsDoc fails when
// EXPERIMENTS.md differs from this output, and
// `go test ./cmd/eclipse-bench -run TestExperimentsDoc -update` (or
// `make experiments`) rewrites the blocks.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"eclipse"
	"eclipse/internal/media"
	"eclipse/internal/viz"
)

// experiment is one printed result of the evaluation.
type experiment struct {
	name  string // command-line name and EXPERIMENTS.md block name
	title string // what it reproduces, for the usage list
	run   func(w io.Writer) error
}

var experiments = []experiment{
	{"fig10", "E1 — Figure 10: stream-buffer filling and the rotating bottleneck", fig10},
	{"pipelined", "E1 follow-up — Section 7: pipelining the DCT coprocessor", pipelined},
	{"fig9", "E2 — Figure 9: architecture and application views", fig9},
	{"mapping", "E3 — Figures 2/3: process networks and mapping", mapping},
	{"instance", "E4 — Section 6: the Figure 8 instance under multi-application load", instance},
	{"cachesweep", "E5 — Section 7: shell cache size", cacheSweep},
	{"prefetch", "E6 — Section 7: prefetching or not", prefetchSweep},
	{"bussweep", "E7 — Section 7: stream bus width and latency", busSweep},
	{"schedsweep", "E8 — Section 5.3: weighted round-robin scheduler", schedSweep},
	{"coupling", "E9a — Section 2.2: sync granularity vs buffer size", coupling},
	{"buffers", "E9b — Section 2.2: decode stream-buffer sizing", buffers},
	{"throughput", "E10 — Section 6: throughput proxy and bus load", throughput},
	{"memorg", "E11 — Section 6: centralized vs distributed stream memory", memorg},
}

func main() {
	name := "all"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	todo, err := lookup(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eclipse-bench: %v\n\n%s", err, usage())
		os.Exit(2)
	}
	for i, e := range todo {
		block, err := render(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eclipse-bench %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if i > 0 {
			block = "\n" + block
		}
		if _, err := io.WriteString(os.Stdout, block); err != nil {
			fmt.Fprintln(os.Stderr, "eclipse-bench:", err)
			os.Exit(1)
		}
	}
}

// lookup returns the experiments a command-line name selects: the one so
// named, or the whole table for "all".
func lookup(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func usage() string {
	var b strings.Builder
	b.WriteString("usage: eclipse-bench [name|all]\n\n")
	for _, e := range experiments {
		fmt.Fprintf(&b, "  %-11s %s\n", e.name, e.title)
	}
	return b.String()
}

// render runs one experiment into its EXPERIMENTS.md block, markers
// included.
func render(e experiment) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- eclipse-bench %s -->\n\n", e.name)
	if err := e.run(&b); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n<!-- end eclipse-bench %s -->\n", e.name)
	return b.String(), nil
}

// workload returns a deterministic test stream.
func workload(w, h, frames, q int, seed int64) ([]byte, error) {
	src := media.DefaultSource(w, h)
	src.Seed = seed
	cfg := media.DefaultCodec(w, h)
	cfg.Q = q
	stream, _, _, err := media.Encode(cfg, media.NewSource(src).Frames(frames))
	return stream, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

func ms(cycles uint64) string { return fmt.Sprintf("%.2f", float64(cycles)/150e6*1e3) }

func fig10(w io.Writer) error {
	cfg := eclipse.DefaultFig10()
	res, err := eclipse.RunFig10(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Decode of %d frames of %d×%d (GOP N=%d M=%d, q=%d) on the Figure 8 instance: %d cycles, %s ms at 150 MHz.\n\n",
		cfg.Frames, cfg.W, cfg.H, cfg.GOPN, cfg.GOPM, cfg.Q, res.Cycles, ms(res.Cycles))
	chart := viz.DefaultChart()
	var annot strings.Builder
	var rows [][]string
	for _, win := range res.Windows {
		// Each frame's type marks its interval on the time axis, like the
		// paper's figure top row.
		n := max(1, int(float64(win.End-win.Start)/float64(res.Cycles)*float64(chart.Width)))
		annot.WriteString(win.Type.String() + strings.Repeat(".", n-1))
		rows = append(rows, []string{fmt.Sprint(win.Coded), win.Type.String(),
			fmt.Sprintf("%.2f", win.MeanFill["rlsq"]), fmt.Sprintf("%.2f", win.MeanFill["dct"]),
			fmt.Sprintf("%.2f", win.MeanFill["mc"]), win.Bottleneck})
	}
	io.WriteString(w, viz.CodeBlock(viz.Panel(chart, annot.String(), res.Collector.Series("dec/rlsq.in"),
		res.Collector.Series("dec/dct.in"), res.Collector.Series("dec/mc.in"))))
	fmt.Fprintf(w, "\nMean fill of each input buffer over each coded frame's interval:\n\n%s",
		viz.Table([]string{"coded", "type", "rlsq.in", "dct.in", "mc.in", "bottleneck"}, rows))
	fmt.Fprintf(w, "\nMajority bottleneck: I → %s, P → %s, B → %s (paper: I → rlsq, P → dct, B → mc).\n",
		res.MajorityBottleneck(media.FrameI), res.MajorityBottleneck(media.FrameP), res.MajorityBottleneck(media.FrameB))
	return nil
}

func pipelined(w io.Writer) error {
	stream, err := workload(176, 144, 10, 6, 1)
	if err != nil {
		return err
	}
	var rows [][]string
	var base uint64
	for _, pipe := range []bool{false, true} {
		arch := eclipse.Fig8()
		arch.Costs.DCTPipelined = pipe
		sys := eclipse.NewSystem(arch)
		app, err := sys.AddDecodeApp("dec", stream, eclipse.DecodeOptions{})
		if err != nil {
			return err
		}
		cycles, err := sys.Run(0)
		if err != nil {
			return err
		}
		if err := app.VerifyAgainstReference(stream); err != nil {
			return err
		}
		name := "baseline"
		if pipe {
			name = "pipelined"
		} else {
			base = cycles
		}
		rows = append(rows, []string{name, fmt.Sprint(cycles), fmt.Sprintf("%.3f×", float64(cycles)/float64(base))})
	}
	fmt.Fprintf(w, "Decode of 10 frames of 176×144 (q=6), output bit-exact both ways:\n\n%s",
		viz.Table([]string{"DCT coprocessor", "cycles", "vs baseline"}, rows))
	return nil
}

func fig9(w io.Writer) error {
	sys, apps, err := eclipse.LoadSetupString(eclipse.ExampleSetup)
	if err != nil {
		return err
	}
	if _, err := sys.Run(0); err != nil {
		return err
	}
	for _, app := range apps {
		if err := app.Verify(); err != nil {
			return err
		}
	}
	sys.WriteReport(w)
	var chart strings.Builder
	if err := sys.ChartSeries(&chart, "dec0/rlsq.in", ""); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nStream buffer filling, RLSQ input:\n\n%s", viz.CodeBlock(chart.String()))
	return nil
}

func mapping(w io.Writer) error {
	dg := eclipse.DecodeGraph("dec", eclipse.DefaultDecodeBuffers())
	eg := eclipse.EncodeGraph("enc", eclipse.DefaultEncodeBuffers())
	io.WriteString(w, viz.CodeBlock(dg.String()+"\n"+eg.String()))
	var rows [][]string
	for _, m := range []struct {
		network string
		fns     map[string]string
	}{{"decode", eclipse.DefaultDecodeMapping}, {"encode", eclipse.DefaultEncodeMapping}} {
		for _, fn := range sortedKeys(m.fns) {
			rows = append(rows, []string{m.network, fn, m.fns[fn]})
		}
	}
	io.WriteString(w, "\n"+viz.Table([]string{"network", "function", "coprocessor"}, rows))
	return nil
}

func instance(w io.Writer) error {
	a, err := workload(96, 80, 8, 6, 2)
	if err != nil {
		return err
	}
	b, err := workload(96, 80, 8, 10, 3)
	if err != nil {
		return err
	}
	dual := eclipse.NewSystem(eclipse.Fig8())
	appA, err := dual.AddDecodeApp("a", a, eclipse.DecodeOptions{})
	if err != nil {
		return err
	}
	appB, err := dual.AddDecodeApp("b", b, eclipse.DecodeOptions{})
	if err != nil {
		return err
	}
	dualCycles, err := dual.Run(0)
	if err != nil {
		return err
	}
	if err := appA.VerifyAgainstReference(a); err != nil {
		return err
	}
	if err := appB.VerifyAgainstReference(b); err != nil {
		return err
	}

	src := media.DefaultSource(96, 80)
	src.Seed = 4
	encFrames := media.NewSource(src).Frames(8)
	encCfg := media.DefaultCodec(96, 80)
	mixed := eclipse.NewSystem(eclipse.Fig8())
	dec, err := mixed.AddDecodeApp("d", a, eclipse.DecodeOptions{})
	if err != nil {
		return err
	}
	enc, err := mixed.AddEncodeApp("e", encCfg, encFrames, eclipse.EncodeOptions{})
	if err != nil {
		return err
	}
	mixedCycles, err := mixed.Run(0)
	if err != nil {
		return err
	}
	if err := dec.VerifyAgainstReference(a); err != nil {
		return err
	}
	if err := enc.VerifyAgainstReference(encCfg, encFrames); err != nil {
		return err
	}

	io.WriteString(w, viz.Table([]string{"run (96×80, 8 frames per stream)", "cycles", "ms at 150 MHz", "outputs"}, [][]string{
		{"dual decode", fmt.Sprint(dualCycles), ms(dualCycles), "both bit-exact"},
		{"encode + decode (time-shift)", fmt.Sprint(mixedCycles), ms(mixedCycles), "both bit-exact"},
	}))
	var switches, steps uint64
	for _, app := range []string{"a", "b"} {
		for _, task := range []string{"vld", "rlsq", "idct", "mc"} {
			st, _ := dual.TaskStats(app + "-" + task)
			switches += st.Switches
			steps += st.Steps
		}
	}
	sec := float64(dualCycles) / 150e6
	fmt.Fprintf(w, "\nDual decode: %d coprocessor steps and %d task switches, a task-switch rate of %.0f kHz and a processing-step rate of %.0f kHz (paper: 10–100 kHz switches).\n\n",
		steps, switches, float64(switches)/sec/1e3, float64(steps)/sec/1e3)

	var busy [][]string
	mixedBusy := mixed.Utilizations()
	for i, u := range dual.Utilizations() {
		busy = append(busy, []string{u.Name, pct(u.Busy), pct(mixedBusy[i].Busy)})
	}
	io.WriteString(w, viz.Table([]string{"coprocessor busy", "dual decode", "encode + decode"}, busy))

	var caches [][]string
	names := dual.CoproNames()
	slices.Sort(names)
	for _, n := range names {
		r, wr := dual.Shell(n).ReadCacheStats(), dual.Shell(n).WriteCacheStats()
		caches = append(caches, []string{n, pct(r.HitRate()), fmt.Sprint(r.Hits), fmt.Sprint(r.Accesses()),
			fmt.Sprint(wr.Flushes), fmt.Sprint(r.Evictions + wr.Evictions)})
	}
	fmt.Fprintf(w, "\nShell caches under dual decode:\n\n%s", viz.Table([]string{"shell cache", "read hit rate",
		"read hits", "reads", "write flushes", "evictions"}, caches))
	return nil
}

// sweepTable renders a sweep: one row per point, its cycles relative to
// the first point that ran, and every extra metric the points report.
func sweepTable(label string, pts []eclipse.SweepPoint) string {
	var base uint64
	metrics := map[string]bool{}
	for _, p := range pts {
		if p.Extra["failed"] == 1 {
			continue
		}
		if base == 0 {
			base = p.Cycles
		}
		for k := range p.Extra {
			metrics[k] = true
		}
	}
	extra := sortedKeys(metrics)
	var rows [][]string
	for _, p := range pts {
		row := []string{p.Label, "failed", "-"}
		if p.Extra["failed"] != 1 {
			row = []string{p.Label, fmt.Sprint(p.Cycles), fmt.Sprintf("%.2f×", float64(p.Cycles)/float64(base))}
		}
		for _, k := range extra {
			cell := "-"
			if v, ok := p.Extra[k]; ok {
				cell = fmt.Sprintf("%.3f", v)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return viz.Table(append([]string{label, "cycles", "relative"}, extra...), rows)
}

// sweep runs a design-space sweep on the 96×80, 8-frame decode workload
// and writes it as a captioned table.
func sweep(w io.Writer, caption, label string, run func(stream []byte) ([]eclipse.SweepPoint, error)) error {
	stream, err := workload(96, 80, 8, 6, 2)
	if err != nil {
		return err
	}
	pts, err := run(stream)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n\n%s", caption, sweepTable(label, pts))
	return nil
}

func cacheSweep(w io.Writer) error {
	return sweep(w, "Decode time against shell cache capacity (read and write lines per shell):", "cache",
		func(s []byte) ([]eclipse.SweepPoint, error) {
			return eclipse.RunCacheSweep(s, []int{1, 2, 4, 8, 16, 32, 64})
		})
}

func prefetchSweep(w io.Writer) error {
	return sweep(w, "Decode time against prefetch depth (lines ahead; 0 = off):", "prefetch",
		func(s []byte) ([]eclipse.SweepPoint, error) { return eclipse.RunPrefetchSweep(s, []int{0, 1, 2, 4, 8}) })
}

func busSweep(w io.Writer) error {
	err := sweep(w, "Decode time against data path width:", "width",
		func(s []byte) ([]eclipse.SweepPoint, error) { return eclipse.RunBusWidthSweep(s, []int{4, 8, 16, 32}) })
	if err != nil {
		return err
	}
	io.WriteString(w, "\n")
	return sweep(w, "Decode time against stream memory latency:", "latency",
		func(s []byte) ([]eclipse.SweepPoint, error) {
			return eclipse.RunBusLatencySweep(s, []uint64{1, 2, 4, 8, 16})
		})
}

func schedSweep(w io.Writer) error {
	a, err := workload(96, 80, 6, 6, 2)
	if err != nil {
		return err
	}
	b, err := workload(96, 80, 6, 10, 3)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range []struct {
		policy string
		naive  bool
		budget uint64
	}{
		{"best-guess", false, 500}, {"best-guess", false, 1000}, {"best-guess", false, 2000},
		{"best-guess", false, 5000}, {"best-guess", false, 10000}, {"naive RR", true, 2000},
	} {
		res, err := eclipse.RunSchedulerExperiment(a, b, c.naive, c.budget)
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.policy, fmt.Sprint(c.budget), fmt.Sprint(res.Cycles),
			pct(float64(res.DeniedSteps) / float64(res.Steps)), fmt.Sprint(res.Switches)})
	}
	fmt.Fprintf(w, "Dual decode (two 96×80 streams, 6 frames each) by scheduler policy and budget:\n\n%s",
		viz.Table([]string{"policy", "budget", "cycles", "wasted steps", "switches"}, rows))
	return nil
}

func coupling(w io.Writer) error {
	grains, bufs := []int{8, 16, 64, 256, 1024}, []int{64, 256, 1024}
	pts, err := eclipse.RunCouplingExperiment(16384, grains, bufs)
	if err != nil {
		return err
	}
	header := []string{"grain \\ buffer"}
	for _, b := range bufs {
		header = append(header, fmt.Sprintf("%d B", b))
	}
	var rows [][]string
	for i, g := range grains { // points come grain-major, in argument order
		row := []string{fmt.Sprintf("%d B", g)}
		for _, p := range pts[i*len(bufs) : (i+1)*len(bufs)] {
			cell := "deadlock"
			if !p.Deadlock {
				cell = fmt.Sprint(p.Cycles)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Cycles to move 16 KiB through one producer/consumer pair:\n\n%s", viz.Table(header, rows))
	return nil
}

func buffers(w io.Writer) error {
	return sweep(w, "Decode time against stream buffer scale (1x = the default sizes):", "buffers",
		func(s []byte) ([]eclipse.SweepPoint, error) {
			return eclipse.RunBufferScaleSweep(s, []float64{0.05, 0.25, 0.5, 1, 2, 4})
		})
}

func throughput(w io.Writer) error {
	a, err := workload(96, 80, 8, 6, 2)
	if err != nil {
		return err
	}
	b, err := workload(96, 80, 8, 10, 3)
	if err != nil {
		return err
	}
	r, err := eclipse.RunThroughput(a, b)
	if err != nil {
		return err
	}
	io.WriteString(w, viz.Table([]string{"dual decode (96×80, 8 frames per stream)", "value"}, [][]string{
		{"cycles", fmt.Sprint(r.Cycles)},
		{"estimated 16-bit ops", fmt.Sprint(r.Ops)},
		{"ops per cycle", fmt.Sprintf("%.1f", r.OpsPerCycle)},
		{"Gops at 150 MHz", fmt.Sprintf("%.2f", r.GopsAt150MHz)},
		{"stream bus read utilization", pct(r.BusReadUtil)},
		{"stream bus write utilization", pct(r.BusWriteUtil)},
	}))
	return nil
}

func memorg(w io.Writer) error {
	return sweep(w, "Decode time by communication-memory organization:", "organization", eclipse.RunMemoryOrganization)
}
