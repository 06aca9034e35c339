// Command eclipse-bench regenerates every experiment of the paper's
// evaluation (see EXPERIMENTS.md for the index) and prints the tables and
// ASCII figures. Subcommands:
//
//	fig10       Figure 10: stream-buffer filling & bottleneck rotation
//	fig9        Figure 9: utilization / application performance views
//	mapping     Figures 2/3: graph construction and mapping report
//	instance    Section 6: dual decode & transcode on the Fig. 8 instance
//	cachesweep  Section 7: shell cache size sweep
//	prefetch    Section 7: prefetching on/off/depth
//	bussweep    Section 7: stream-bus width and latency sweeps
//	schedsweep  Section 5.3: scheduler policy and budget sweep
//	coupling    Section 2.2: sync granularity vs buffer size
//	buffers     Section 2.2: decode buffer sizing sweep
//	throughput  Section 6: ops/cycle proxy and bus utilization
//	pipelined   Section 7 follow-up: pipelined DCT ablation
//	memorg      Section 6: centralized vs distributed stream memory
//	all         everything above
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"eclipse"
	"eclipse/internal/media"
	"eclipse/internal/viz"
)

func main() {
	cmd := "all"
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	cmds := map[string]func(){
		"fig10":      fig10,
		"fig9":       fig9,
		"mapping":    mapping,
		"instance":   instance,
		"cachesweep": cacheSweep,
		"prefetch":   prefetchSweep,
		"bussweep":   busSweep,
		"schedsweep": schedSweep,
		"coupling":   coupling,
		"buffers":    buffers,
		"throughput": throughput,
		"pipelined":  pipelined,
		"memorg":     memorg,
	}
	if cmd == "all" {
		order := []string{"fig10", "fig9", "mapping", "instance", "cachesweep",
			"prefetch", "bussweep", "schedsweep", "coupling", "buffers",
			"throughput", "pipelined", "memorg"}
		for _, c := range order {
			cmds[c]()
		}
		return
	}
	fn, ok := cmds[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "eclipse-bench: unknown command %q\n", cmd)
		os.Exit(2)
	}
	fn()
}

func header(title string) {
	fmt.Printf("\n==================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("==================================================================\n\n")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "eclipse-bench:", err)
	os.Exit(1)
}

// workload returns a deterministic test stream.
func workload(w, h, frames, q int, seed int64) []byte {
	src := media.DefaultSource(w, h)
	src.Seed = seed
	fr := media.NewSource(src).Frames(frames)
	cfg := media.DefaultCodec(w, h)
	cfg.Q = q
	stream, _, _, err := media.Encode(cfg, fr)
	if err != nil {
		fail(err)
	}
	return stream
}

func fig10() {
	header("E1 — Figure 10: available data in RLSQ/DCT/MC input streams")
	res, err := eclipse.RunFig10(eclipse.DefaultFig10())
	if err != nil {
		fail(err)
	}
	// GOP annotation along the time axis, like the paper's figure top row.
	var annot strings.Builder
	for _, w := range res.Windows {
		frac := float64(w.End-w.Start) / float64(res.Cycles)
		n := int(frac * 72)
		if n < 1 {
			n = 1
		}
		annot.WriteString(w.Type.String())
		annot.WriteString(strings.Repeat(".", n-1))
	}
	chart := viz.DefaultChart()
	panels := []string{"rlsq", "dct", "mc"}
	for i, stage := range panels {
		a := ""
		if i == 0 {
			a = annot.String()
		}
		fmt.Print(chart.Render(res.Collector.Series("dec/"+stage+".in"), a))
		fmt.Println()
	}
	fmt.Printf("per-frame bottleneck analysis (window = coded frame interval):\n")
	for _, w := range res.Windows {
		fmt.Printf("  coded %2d  %v  rlsq %.2f  dct %.2f  mc %.2f  -> %s\n",
			w.Coded, w.Type, w.MeanFill["rlsq"], w.MeanFill["dct"], w.MeanFill["mc"], w.Bottleneck)
	}
	fmt.Printf("\nmajority bottleneck:  I -> %s   P -> %s   B -> %s\n",
		res.MajorityBottleneck(media.FrameI),
		res.MajorityBottleneck(media.FrameP),
		res.MajorityBottleneck(media.FrameB))
	fmt.Printf("(paper: I -> rlsq, P -> dct, B -> mc)\n")
}

func fig9() {
	header("E2 — Figure 9: performance visualization (architecture + application views)")
	sys, apps, err := eclipse.LoadSetupString(eclipse.ExampleSetup)
	if err != nil {
		fail(err)
	}
	if _, err := sys.Run(0); err != nil {
		fail(err)
	}
	for _, app := range apps {
		if err := app.Verify(); err != nil {
			fail(err)
		}
	}
	sys.WriteReport(os.Stdout)
	fmt.Println()
	if err := sys.ChartSeries(os.Stdout, "dec0/rlsq.in", "stream buffer filling, RLSQ input"); err != nil {
		fail(err)
	}
}

func mapping() {
	header("E3 — Figures 2/3: process networks and application-to-architecture mapping")
	dg := eclipse.DecodeGraph("dec", eclipse.DefaultDecodeBuffers())
	fmt.Print(dg.String())
	fmt.Println()
	eg := eclipse.EncodeGraph("enc", eclipse.DefaultEncodeBuffers())
	fmt.Print(eg.String())
	fmt.Println("decode mapping:", fmtMap(eclipse.DefaultDecodeMapping))
	fmt.Println("encode mapping:", fmtMap(eclipse.DefaultEncodeMapping))
}

func fmtMap(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"->"+m[k])
	}
	return strings.Join(parts, "  ")
}

func instance() {
	header("E4 — Section 6: the Figure 8 instance under multi-application load")
	a := workload(96, 80, 8, 6, 2)
	b := workload(96, 80, 8, 10, 3)

	fmt.Println("dual simultaneous decode:")
	sys := eclipse.NewSystem(eclipse.Fig8())
	appA, err := sys.AddDecodeApp("a", a, eclipse.DecodeOptions{})
	if err != nil {
		fail(err)
	}
	appB, err := sys.AddDecodeApp("b", b, eclipse.DecodeOptions{})
	if err != nil {
		fail(err)
	}
	cycles, err := sys.Run(0)
	if err != nil {
		fail(err)
	}
	if err := appA.VerifyAgainstReference(a); err != nil {
		fail(err)
	}
	if err := appB.VerifyAgainstReference(b); err != nil {
		fail(err)
	}
	var switches, steps, denied uint64
	for _, app := range []string{"a", "b"} {
		for _, task := range []string{"vld", "rlsq", "idct", "mc"} {
			st, _ := sys.TaskStats(app + "-" + task)
			switches += st.Switches
			steps += st.Steps
			denied += st.DeniedSteps
		}
	}
	sec := float64(cycles) / 150e6
	fmt.Printf("  %d cycles (%0.2f ms at 150 MHz); %d coprocessor steps, %d switches\n",
		cycles, sec*1e3, steps, switches)
	fmt.Printf("  task switch rate %.0f kHz, processing step rate %.0f kHz (paper: 10-100 kHz switches)\n",
		float64(switches)/sec/1e3, float64(steps)/sec/1e3)
	for _, u := range sys.Utilizations() {
		fmt.Printf("  %-5s %5.1f%% busy\n", u.Name, u.Busy*100)
	}
	fmt.Println("  shell caches (read hit rate, write-backs, evictions):")
	names := sys.CoproNames()
	sort.Strings(names)
	for _, n := range names {
		sh := sys.Shell(n)
		r, w := sh.ReadCacheStats(), sh.WriteCacheStats()
		fmt.Printf("  %-5s read %5.1f%% hit (%d/%d)  flushes %d  evictions %d\n",
			n, r.HitRate()*100, r.Hits, r.Accesses(), w.Flushes, r.Evictions+w.Evictions)
	}

	fmt.Println("\nsimultaneous encode + decode (time-shift):")
	src := media.DefaultSource(96, 80)
	src.Seed = 4
	encFrames := media.NewSource(src).Frames(8)
	encCfg := media.DefaultCodec(96, 80)
	sys2 := eclipse.NewSystem(eclipse.Fig8())
	dec, err := sys2.AddDecodeApp("d", a, eclipse.DecodeOptions{})
	if err != nil {
		fail(err)
	}
	enc, err := sys2.AddEncodeApp("e", encCfg, encFrames, eclipse.EncodeOptions{})
	if err != nil {
		fail(err)
	}
	cycles2, err := sys2.Run(0)
	if err != nil {
		fail(err)
	}
	if err := dec.VerifyAgainstReference(a); err != nil {
		fail(err)
	}
	if err := enc.VerifyAgainstReference(encCfg, encFrames); err != nil {
		fail(err)
	}
	fmt.Printf("  %d cycles; both outputs bit-exact with their references\n", cycles2)
	for _, u := range sys2.Utilizations() {
		fmt.Printf("  %-5s %5.1f%% busy\n", u.Name, u.Busy*100)
	}
}

func sweepTable(title string, pts []eclipse.SweepPoint) {
	fmt.Printf("%s\n", title)
	var base uint64
	for _, p := range pts {
		if p.Extra["failed"] != 1 {
			base = p.Cycles
			break
		}
	}
	if base == 0 {
		base = 1
	}
	for _, p := range pts {
		extra := ""
		keys := make([]string, 0, len(p.Extra))
		for k := range p.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			extra += fmt.Sprintf("  %s=%.3f", k, p.Extra[k])
		}
		if p.Extra["failed"] == 1 {
			fmt.Printf("  %-16s %12s%s\n", p.Label, "FAILED", extra)
			continue
		}
		fmt.Printf("  %-16s %12d cycles  (%.2fx)%s\n", p.Label, p.Cycles,
			float64(p.Cycles)/float64(base), extra)
	}
	fmt.Println()
}

func cacheSweep() {
	header("E5 — Section 7: shell data cache size sweep")
	pts, err := eclipse.RunCacheSweep(workload(96, 80, 8, 6, 2), []int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		fail(err)
	}
	sweepTable("decode time vs cache capacity (read+write lines per shell):", pts)
}

func prefetchSweep() {
	header("E6 — Section 7: cache prefetching or not")
	pts, err := eclipse.RunPrefetchSweep(workload(96, 80, 8, 6, 2), []int{0, 1, 2, 4, 8})
	if err != nil {
		fail(err)
	}
	sweepTable("decode time vs prefetch depth (lines ahead; 0 = off):", pts)
}

func busSweep() {
	header("E7 — Section 7: stream bus width and latency")
	stream := workload(96, 80, 8, 6, 2)
	pts, err := eclipse.RunBusWidthSweep(stream, []int{4, 8, 16, 32})
	if err != nil {
		fail(err)
	}
	sweepTable("decode time vs data path width:", pts)
	pts, err = eclipse.RunBusLatencySweep(stream, []uint64{1, 2, 4, 8, 16})
	if err != nil {
		fail(err)
	}
	sweepTable("decode time vs stream memory latency:", pts)
}

func schedSweep() {
	header("E8 — Section 5.3: distributed weighted-round-robin scheduler")
	a := workload(96, 80, 6, 6, 2)
	b := workload(96, 80, 6, 10, 3)
	fmt.Println("policy ablation (dual decode):")
	for _, naive := range []bool{false, true} {
		res, err := eclipse.RunSchedulerExperiment(a, b, naive, 2000)
		if err != nil {
			fail(err)
		}
		name := "best-guess"
		if naive {
			name = "naive RR"
		}
		fmt.Printf("  %-11s %10d cycles  %6.1f%% wasted steps  %6d switches\n",
			name, res.Cycles, float64(res.DeniedSteps)/float64(res.Steps)*100, res.Switches)
	}
	fmt.Println("\nbudget sweep (best-guess policy):")
	for _, budget := range []uint64{500, 1000, 2000, 5000, 10000} {
		res, err := eclipse.RunSchedulerExperiment(a, b, false, budget)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  budget %6d %10d cycles  %6d switches\n", budget, res.Cycles, res.Switches)
	}
	fmt.Println()
}

func coupling() {
	header("E9a — Section 2.2: synchronization granularity vs buffer size")
	pts, err := eclipse.RunCouplingExperiment(16384, []int{8, 16, 64, 256, 1024}, []int{64, 256, 1024})
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %-8s", "grain\\buf")
	for _, b := range []int{64, 256, 1024} {
		fmt.Printf(" %14d", b)
	}
	fmt.Println()
	byKey := map[[2]int]eclipse.CouplingPoint{}
	for _, p := range pts {
		byKey[[2]int{p.Grain, p.BufBytes}] = p
	}
	for _, g := range []int{8, 16, 64, 256, 1024} {
		fmt.Printf("  %-8d", g)
		for _, b := range []int{64, 256, 1024} {
			p := byKey[[2]int{g, b}]
			if p.Deadlock {
				fmt.Printf(" %14s", "deadlock")
			} else {
				fmt.Printf(" %10d cyc", p.Cycles) // 15 wide, like the header and deadlock cells
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(finer sync grain lets smaller buffers work; coarser grain needs fewer putspace messages)")
}

func buffers() {
	header("E9b — Section 2.2: decode stream-buffer sizing")
	pts, err := eclipse.RunBufferScaleSweep(workload(96, 80, 8, 6, 2), []float64{0.05, 0.25, 0.5, 1, 2, 4})
	if err != nil {
		fail(err)
	}
	sweepTable("decode time vs buffer scale (1x = defaults):", pts)
}

func throughput() {
	header("E10 — Section 6: throughput proxy (ops/cycle) and bus load")
	a := workload(96, 80, 8, 6, 2)
	b := workload(96, 80, 8, 10, 3)
	r, err := eclipse.RunThroughput(a, b)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  dual decode: %d cycles, %d estimated 16-bit ops\n", r.Cycles, r.Ops)
	fmt.Printf("  %.1f ops/cycle  ->  %.2f Gops at the paper's 150 MHz clock\n", r.OpsPerCycle, r.GopsAt150MHz)
	fmt.Printf("  stream bus utilization: read %.1f%%, write %.1f%%\n",
		r.BusReadUtil*100, r.BusWriteUtil*100)
	fmt.Printf("  (paper claims 36 Gops for dual HD decode; our workload is sub-SD,\n")
	fmt.Printf("   so the comparison point is ops-per-cycle scaling, not the absolute figure)\n")
}

func pipelined() {
	header("Ablation — Section 7 follow-up: pipelining the DCT coprocessor")
	stream := workload(176, 144, 10, 6, 1)
	for _, pipe := range []bool{false, true} {
		arch := eclipse.Fig8()
		arch.Costs.DCTPipelined = pipe
		sys := eclipse.NewSystem(arch)
		app, err := sys.AddDecodeApp("dec", stream, eclipse.DecodeOptions{})
		if err != nil {
			fail(err)
		}
		cycles, err := sys.Run(0)
		if err != nil {
			fail(err)
		}
		if err := app.VerifyAgainstReference(stream); err != nil {
			fail(err)
		}
		name := "baseline DCT "
		if pipe {
			name = "pipelined DCT"
		}
		fmt.Printf("  %s %10d cycles\n", name, cycles)
	}
	fmt.Println()
}

func memorg() {
	header("E11 — Section 6 tradeoff: centralized vs distributed stream memory")
	pts, err := eclipse.RunMemoryOrganization(workload(96, 80, 8, 6, 2))
	if err != nil {
		fail(err)
	}
	sweepTable("decode time by communication-memory organization:", pts)
	fmt.Println("(distributed banks remove cross-stream bus contention and the 32 kB")
	fmt.Println(" capacity wall, at the cost of run-time buffer allocation flexibility)")
}
