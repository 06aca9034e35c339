package eclipse

import (
	"testing"

	"eclipse/internal/media"
)

// TestFig10BottleneckRotation reproduces the paper's Figure 10 finding:
// decoding an MPEG GOP, the pipeline bottleneck rotates with the frame
// type — I frames are RLSQ-bound (dense coefficient data), P frames
// DCT-bound, and B frames MC-bound (two prediction fetches from off-chip
// memory). Absolute numbers are ours; the rotation is the paper's.
func TestFig10BottleneckRotation(t *testing.T) {
	res, err := RunFig10(DefaultFig10())
	if err != nil {
		t.Fatal(err)
	}
	// The QCIF IPBB run is the workload every engine-speed number is
	// quoted on; simulated time is part of the model's semantics, so a
	// faster kernel must reproduce both counts exactly.
	const goldenCycles, goldenEvents = 478139, 614561
	if res.Cycles != goldenCycles || res.Events != goldenEvents {
		t.Errorf("Fig. 10 run took %d simulated cycles / %d events, golden values are %d / %d — "+
			"kernel event ordering changed", res.Cycles, res.Events, goldenCycles, goldenEvents)
	}
	if got := res.MajorityBottleneck(media.FrameI); got != "rlsq" {
		t.Errorf("I-frame bottleneck = %q, want rlsq (summary %v)", got, res.RotationSummary())
	}
	if got := res.MajorityBottleneck(media.FrameP); got != "dct" {
		t.Errorf("P-frame bottleneck = %q, want dct (summary %v)", got, res.RotationSummary())
	}
	if got := res.MajorityBottleneck(media.FrameB); got != "mc" {
		t.Errorf("B-frame bottleneck = %q, want mc (summary %v)", got, res.RotationSummary())
	}
	// Buffer fillings fluctuate with the GOP as in the paper's plots:
	// the RLSQ input must swing substantially across the run.
	s := res.Collector.Series("dec/rlsq.in")
	if s == nil {
		t.Fatal("missing rlsq series")
	}
	if s.Max() < 2*s.Mean() && s.Mean() < float64(res.BufSizes["rlsq"])/2 {
		t.Errorf("rlsq.in hardly fluctuates: max %.0f mean %.0f", s.Max(), s.Mean())
	}
}

// TestEncodeGoldenCycles pins the simulated encode that BenchmarkEncode
// only reports (its inputs: 96×80, 8 frames, source seed 4, default codec,
// Fig. 8 instance). The ME coprocessor is charged SearchResult.Ops ·
// MEPerCandidate per macroblock — the hardware full search's cost, not a
// count of the SADs the software kernel happens to compute — so a faster
// media.MotionSearch must leave this count where it is.
func TestEncodeGoldenCycles(t *testing.T) {
	const goldenCycles = 454576
	benchSetup(t)
	sys := NewSystem(Fig8())
	app, err := sys.AddEncodeApp("enc", benchStreams.encCfg, benchStreams.encFrames, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := sys.Run(50_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.VerifyAgainstReference(benchStreams.encCfg, benchStreams.encFrames); err != nil {
		t.Fatal(err)
	}
	if cycles != goldenCycles {
		t.Errorf("encode took %d simulated cycles, golden value is %d — "+
			"the ME cost driver (search Ops) or event ordering changed", cycles, goldenCycles)
	}
}

// TestFig10WindowsCoverRun sanity-checks the analysis windows.
func TestFig10WindowsCoverRun(t *testing.T) {
	cfg := DefaultFig10()
	cfg.W, cfg.H, cfg.Frames = 96, 80, 8
	res, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 8 {
		t.Fatalf("%d windows", len(res.Windows))
	}
	var prev uint64
	for i, w := range res.Windows {
		if w.Start != prev || w.End <= w.Start {
			t.Fatalf("window %d: [%d, %d) after %d", i, w.Start, w.End, prev)
		}
		prev = w.End
		if w.Bottleneck == "" {
			t.Fatalf("window %d unclassified", i)
		}
	}
	if res.Windows[len(res.Windows)-1].End != res.Cycles {
		t.Fatalf("last window ends at %d, run at %d", prev, res.Cycles)
	}
}

// TestPipelinedDCTShiftsPBottleneck reproduces the paper's conclusion
// from the Figure 10 analysis: pipelining the DCT coprocessor removes
// the P-frame DCT bottleneck (Section 7 / [14]).
func TestPipelinedDCTShiftsPBottleneck(t *testing.T) {
	cfg := DefaultFig10()
	srcCfg := media.DefaultSource(cfg.W, cfg.H)
	frames := media.NewSource(srcCfg).Frames(cfg.Frames)
	ccfg := media.DefaultCodec(cfg.W, cfg.H)
	stream, _, _, err := media.Encode(ccfg, frames)
	if err != nil {
		t.Fatal(err)
	}

	run := func(pipelined bool) (uint64, string) {
		arch := Fig8()
		arch.Costs.DCTPipelined = pipelined
		sys := NewSystem(arch)
		bufs := DefaultDecodeBuffers()
		app, err := sys.AddDecodeApp("dec", stream, DecodeOptions{Probes: true, Buffers: &bufs})
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := sys.Run(10_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.VerifyAgainstReference(stream); err != nil {
			t.Fatal(err)
		}
		// Off-chip memory is demand-paged: the decode writes the bit-stream
		// and three QCIF frame slots, a sliver of the 16 MiB it can address.
		if got, size := sys.DRAM.Resident(), sys.DRAM.Size(); got == 0 || got > size/16 {
			t.Errorf("DRAM holds %d resident bytes of %d after a Fig. 10 decode, want 0 < resident <= size/16", got, size)
		}
		res := &Fig10Result{
			Collector: sys.Collector,
			BufSizes:  map[string]int{"rlsq": bufs.Tok, "dct": bufs.Coef, "mc": bufs.Resid},
		}
		res.Windows = analyzeWindows(app.Sink.Timeline, sys.Collector, res.BufSizes)
		return cycles, res.MajorityBottleneck(media.FrameP)
	}

	baseCycles, baseP := run(false)
	pipeCycles, pipeP := run(true)
	if baseP != "dct" {
		t.Fatalf("baseline P bottleneck = %q", baseP)
	}
	if pipeP == "dct" {
		t.Errorf("pipelined DCT still the P bottleneck")
	}
	if pipeCycles >= baseCycles {
		t.Errorf("pipelining DCT did not speed up the decode: %d vs %d", pipeCycles, baseCycles)
	}
	t.Logf("decode: %d cycles baseline, %d with pipelined DCT; P bottleneck %s -> %s",
		baseCycles, pipeCycles, baseP, pipeP)
}
