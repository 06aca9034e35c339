package eclipse

// Benchmark harness: one benchmark per paper experiment (see
// EXPERIMENTS.md for the index). Each benchmark iteration performs one
// full cycle-accurate simulation run; the interesting outputs are the
// reported custom metrics (simulated cycles, utilization, rates) plus the
// engine-speed metrics (Mevents/s and allocs/op). Regenerate everything
// with:
//
//	go test -bench=. -benchmem ./...
//
// or the cmd/eclipse-bench tool for human-readable tables. These are for
// local profiling; performance claims come from the rig in benchmark/
// (see benchmark/README.md), whose own tests TestBenchmarkRig runs.

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"eclipse/internal/media"
)

// TestBenchmarkRig runs the tests of the nested benchmark module, which
// `go test ./...` from the root does not reach, so that a change to a
// signature or Metrics field the rig drives fails tier-1.
func TestBenchmarkRig(t *testing.T) {
	if testing.Short() {
		t.Skip("nested go test in -short mode")
	}
	// go caches a passing result until the test binary or a file the test
	// opened changes. The rig's sources and the serve and cluster packages
	// are outside this package's imports, so open every directory the rig
	// builds from.
	dirs, err := exec.Command("go", "-C", "benchmark", "list", "-deps",
		"-f", "{{if not .Standard}}{{.Dir}}{{end}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Fields(string(dirs)) {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := exec.Command("go", "-C", "benchmark", "test", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark test ./...: %v\n%s", err, out)
	}
}

// benchStreams builds the shared workloads once.
var benchStreams struct {
	once sync.Once
	// qcif is the Figure 10 workload: one QCIF-class IPBB stream.
	qcif []byte
	// sdA/sdB are two independent small streams for dual-decode runs.
	sdA, sdB []byte
	// raw frames and config for encode benchmarks.
	encCfg    media.CodecConfig
	encFrames []*media.Frame
}

// reportMevents reports engine throughput: millions of kernel events
// executed per wall-clock second across all iterations.
func reportMevents(b *testing.B, events uint64) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s/1e6, "Mevents/s")
	}
}

func benchSetup(b testing.TB) {
	b.Helper()
	benchStreams.once.Do(func() {
		mk := func(w, h, n, q int, seed int64) []byte {
			src := media.DefaultSource(w, h)
			src.Seed = seed
			frames := media.NewSource(src).Frames(n)
			cfg := media.DefaultCodec(w, h)
			cfg.Q = q
			stream, _, _, err := media.Encode(cfg, frames)
			if err != nil {
				panic(err)
			}
			return stream
		}
		benchStreams.qcif = mk(176, 144, 12, 6, 1)
		benchStreams.sdA = mk(96, 80, 8, 6, 2)
		benchStreams.sdB = mk(96, 80, 8, 10, 3)
		benchStreams.encCfg = media.DefaultCodec(96, 80)
		src := media.DefaultSource(96, 80)
		src.Seed = 4
		benchStreams.encFrames = media.NewSource(src).Frames(8)
	})
}

// BenchmarkFig10DecodeGOP regenerates experiment E1/E2 (Figures 10 and
// 9): decoding an IPBB GOP on the Figure 8 instance with buffer-filling
// probes. Metrics: simulated cycles, cycles per frame, and the rotation
// verdicts as 1/0 gauges.
func BenchmarkFig10DecodeGOP(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var res *Fig10Result
	var events uint64
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunFig10Stream(benchStreams.qcif)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	reportMevents(b, events)
	b.ReportMetric(float64(res.Cycles), "simcycles")
	b.ReportMetric(float64(res.Cycles)/float64(res.Seq.Frames), "simcycles/frame")
	verdict := func(t media.FrameType, want string) float64 {
		if res.MajorityBottleneck(t) == want {
			return 1
		}
		return 0
	}
	b.ReportMetric(verdict(media.FrameI, "rlsq"), "I->rlsq")
	b.ReportMetric(verdict(media.FrameP, "dct"), "P->dct")
	b.ReportMetric(verdict(media.FrameB, "mc"), "B->mc")
}

// BenchmarkDualDecode regenerates experiment E4a (Section 6): two
// simultaneous decodes time-sharing every coprocessor. Metrics include
// the task-switch rate the paper quotes at 10–100 kHz.
func BenchmarkDualDecode(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var cycles uint64
	var switches, steps, events uint64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Fig8())
		appA, err := sys.AddDecodeApp("a", benchStreams.sdA, DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		appB, err := sys.AddDecodeApp("b", benchStreams.sdB, DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles, err = sys.Run(50_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := appA.VerifyAgainstReference(benchStreams.sdA); err != nil {
			b.Fatal(err)
		}
		if err := appB.VerifyAgainstReference(benchStreams.sdB); err != nil {
			b.Fatal(err)
		}
		switches, steps = 0, 0
		for _, app := range []string{"a", "b"} {
			for _, task := range []string{"vld", "rlsq", "idct", "mc"} {
				st, _ := sys.TaskStats(app + "-" + task)
				switches += st.Switches
				steps += st.Steps
			}
		}
		events += sys.K.Events()
	}
	reportMevents(b, events)
	b.ReportMetric(float64(cycles), "simcycles")
	// Rates at the 150 MHz coprocessor clock.
	sec := float64(cycles) / 150e6
	b.ReportMetric(float64(switches)/sec/1e3, "switches-kHz")
	b.ReportMetric(float64(steps)/sec/1e3, "steps-kHz")
}

// BenchmarkTranscode regenerates experiment E4b (Section 6): simultaneous
// encode + decode (the time-shift scenario), with the DCT, RLSQ, and
// MC/ME coprocessors each running tasks of both directions.
func BenchmarkTranscode(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Fig8())
		dec, err := sys.AddDecodeApp("d", benchStreams.sdA, DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		enc, err := sys.AddEncodeApp("e", benchStreams.encCfg, benchStreams.encFrames, EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles, err = sys.Run(50_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.VerifyAgainstReference(benchStreams.sdA); err != nil {
			b.Fatal(err)
		}
		if err := enc.VerifyAgainstReference(benchStreams.encCfg, benchStreams.encFrames); err != nil {
			b.Fatal(err)
		}
		events += sys.K.Events()
	}
	reportMevents(b, events)
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkCacheSize regenerates experiment E5 (Section 7, cache size
// sweep). One sub-benchmark per capacity; the metric is simulated cycles.
func BenchmarkCacheSize(b *testing.B) {
	benchSetup(b)
	for _, lines := range []int{1, 4, 16, 64} {
		lines := lines
		b.Run(benchName("lines", lines), func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunCacheSweep(benchStreams.sdA, []int{lines})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
			b.ReportMetric(pts[0].Extra["rlsq_read_hit_rate"], "hitrate")
		})
	}
}

// BenchmarkPrefetch regenerates experiment E6 (Section 7, prefetching or
// not).
func BenchmarkPrefetch(b *testing.B) {
	benchSetup(b)
	for _, depth := range []int{0, 2, 4} {
		depth := depth
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunPrefetchSweep(benchStreams.sdA, []int{depth})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
		})
	}
}

// BenchmarkBusWidth regenerates experiment E7a (Section 7, bus width).
func BenchmarkBusWidth(b *testing.B) {
	benchSetup(b)
	for _, width := range []int{4, 8, 16, 32} {
		width := width
		b.Run(benchName("bytes", width), func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunBusWidthSweep(benchStreams.sdA, []int{width})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
			b.ReportMetric(pts[0].Extra["read_bus_util"], "read-bus-util")
		})
	}
}

// BenchmarkBusLatency regenerates experiment E7b (Section 7, bus latency).
func BenchmarkBusLatency(b *testing.B) {
	benchSetup(b)
	for _, lat := range []uint64{1, 4, 16} {
		lat := lat
		b.Run(benchName("cycles", int(lat)), func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunBusLatencySweep(benchStreams.sdA, []uint64{lat})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
		})
	}
}

// BenchmarkScheduler regenerates experiment E8 (Section 5.3 / [13]):
// best-guess vs naive round-robin and the budget sweep, on a dual-decode
// workload.
func BenchmarkScheduler(b *testing.B) {
	benchSetup(b)
	cases := []struct {
		name   string
		naive  bool
		budget uint64
	}{
		{"bestguess-b2000", false, 2000},
		{"naive-b2000", true, 2000},
		{"bestguess-b500", false, 500},
		{"bestguess-b10000", false, 10000},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var res *SchedResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = RunSchedulerExperiment(benchStreams.sdA, benchStreams.sdB, c.naive, c.budget)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "simcycles")
			b.ReportMetric(float64(res.DeniedSteps)/float64(res.Steps), "wasted-steps")
			b.ReportMetric(float64(res.Switches), "switches")
		})
	}
}

// BenchmarkSyncGranularity regenerates experiment E9a (Section 2.2): the
// synchronization-granularity / buffer-size coupling study.
func BenchmarkSyncGranularity(b *testing.B) {
	for _, grain := range []int{16, 64, 256} {
		grain := grain
		b.Run(benchName("grain", grain), func(b *testing.B) {
			var pts []CouplingPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunCouplingExperiment(16384, []int{grain}, []int{1024})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
			b.ReportMetric(float64(pts[0].Msgs), "putspace-msgs")
		})
	}
}

// BenchmarkBufferSize regenerates experiment E9b (Section 2.2): decode
// throughput against stream-buffer sizing.
func BenchmarkBufferSize(b *testing.B) {
	benchSetup(b)
	for _, scale := range []float64{0.5, 1, 2, 4} {
		scale := scale
		b.Run(benchName("scale-pct", int(scale*100)), func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunBufferScaleSweep(benchStreams.sdA, []float64{scale})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].Cycles), "simcycles")
		})
	}
}

// BenchmarkThroughput regenerates experiment E10 (Section 6): aggregate
// ops-per-cycle for a dual-stream decode, scaled to the Gops figure at
// the paper's 150 MHz clock, plus stream-bus utilizations.
func BenchmarkThroughput(b *testing.B) {
	benchSetup(b)
	var r *ThroughputReport
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunThroughput(benchStreams.sdA, benchStreams.sdB)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OpsPerCycle, "ops/cycle")
	b.ReportMetric(r.GopsAt150MHz, "Gops@150MHz")
	b.ReportMetric(r.BusReadUtil, "read-bus-util")
	b.ReportMetric(r.BusWriteUtil, "write-bus-util")
}

// BenchmarkPipelinedDCT regenerates the paper's post-Figure 10 design
// change: the pipelined DCT ablation.
func BenchmarkPipelinedDCT(b *testing.B) {
	benchSetup(b)
	for _, pipelined := range []bool{false, true} {
		pipelined := pipelined
		name := "baseline"
		if pipelined {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				arch := Fig8()
				arch.Costs.DCTPipelined = pipelined
				sys := NewSystem(arch)
				app, err := sys.AddDecodeApp("dec", benchStreams.sdA, DecodeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cycles, err = sys.Run(50_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if err := app.VerifyAgainstReference(benchStreams.sdA); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkEncode measures the encode pipeline on the instance.
func BenchmarkEncode(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Fig8())
		app, err := sys.AddEncodeApp("enc", benchStreams.encCfg, benchStreams.encFrames, EncodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles, err = sys.Run(50_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := app.VerifyAgainstReference(benchStreams.encCfg, benchStreams.encFrames); err != nil {
			b.Fatal(err)
		}
		events += sys.K.Events()
	}
	reportMevents(b, events)
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkFunctionalDecode measures the untimed Kahn execution engine on
// the same workload, for engine-overhead comparisons.
func BenchmarkFunctionalDecode(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := RunFunctionalDecode(benchStreams.sdA, DefaultDecodeBuffers()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceDecode measures the plain monolithic decoder.
func BenchmarkReferenceDecode(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReference(benchStreams.sdA); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkMemoryOrganization regenerates experiment E11 (the Section 6
// centralized-vs-distributed communication memory tradeoff).
func BenchmarkMemoryOrganization(b *testing.B) {
	benchSetup(b)
	for _, distributed := range []bool{false, true} {
		distributed := distributed
		name := "central"
		if distributed {
			name = "distributed"
		}
		b.Run(name, func(b *testing.B) {
			var pts []SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = RunMemoryOrganization(benchStreams.sdA)
				if err != nil {
					b.Fatal(err)
				}
			}
			idx := 0
			if distributed {
				idx = 1
			}
			b.ReportMetric(float64(pts[idx].Cycles), "simcycles")
		})
	}
}
