package eclipse

import (
	"fmt"
	"sort"

	"eclipse/internal/copro"
	"eclipse/internal/media"
	"eclipse/internal/trace"
)

// This file implements the paper's experiments as reusable runners shared
// by the test suite, the benchmark harness (bench_test.go), the
// cmd/eclipse-bench tool, and the sim_fig10 workload of the benchmark rig
// (benchmark/). See EXPERIMENTS.md for the experiment index.

// Fig10Config parameterizes the Figure 10 reproduction: decoding one
// MPEG-style stream while sampling the available data in the RLSQ, DCT,
// and MC input stream buffers.
type Fig10Config struct {
	W, H   int
	Frames int
	Q      int
	GOPN   int
	GOPM   int
	Seed   int64
}

// DefaultFig10 uses a QCIF-class picture and the paper's IPBB GOP
// structure.
func DefaultFig10() Fig10Config {
	return Fig10Config{W: 176, H: 144, Frames: 12, Q: 6, GOPN: 12, GOPM: 3, Seed: 1}
}

// FrameWindow is the analysis of one coded frame's time interval: the
// mean normalized filling of each monitored input buffer while that frame
// moved through the pipeline, and the inferred bottleneck task.
type FrameWindow struct {
	Coded      int
	TRef       uint16
	Type       media.FrameType
	Start, End uint64
	MeanFill   map[string]float64 // stage → mean fill fraction of its input buffer
	Bottleneck string             // stage whose input stayed fullest
}

// Fig10Result is the outcome of a Figure 10 run.
type Fig10Result struct {
	Seq       media.SeqHeader
	Cycles    uint64
	Events    uint64 // kernel events executed (engine-throughput metric)
	Windows   []FrameWindow
	Collector *trace.Collector
	BufSizes  map[string]int // stage → input buffer size (for normalizing)
	Stream    []byte
	App       *DecodeApp
}

// fig10Stages maps analysis stage names to their probe series.
var fig10Stages = []string{"rlsq", "dct", "mc"}

// RunFig10 encodes a synthetic sequence, decodes it on the Figure 8
// instance with buffer-filling probes, and attributes each coded frame's
// interval to its pipeline bottleneck.
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	srcCfg := media.DefaultSource(cfg.W, cfg.H)
	srcCfg.Seed = cfg.Seed
	frames := media.NewSource(srcCfg).Frames(cfg.Frames)
	ccfg := media.DefaultCodec(cfg.W, cfg.H)
	ccfg.Q = cfg.Q
	ccfg.GOPN = cfg.GOPN
	ccfg.GOPM = cfg.GOPM
	stream, _, _, err := media.Encode(ccfg, frames)
	if err != nil {
		return nil, err
	}
	return RunFig10Stream(stream)
}

// RunFig10Stream runs the Figure 10 measurement on an existing bitstream.
func RunFig10Stream(stream []byte) (*Fig10Result, error) {
	sys := NewSystem(Fig8())
	defer sys.Shutdown() // release parked procs if the cycle limit pauses the run
	bufs := DefaultDecodeBuffers()
	app, err := sys.AddDecodeApp("dec", stream, DecodeOptions{Probes: true, Buffers: &bufs})
	if err != nil {
		return nil, err
	}
	cycles, err := sys.Run(10_000_000_000)
	if err != nil {
		return nil, err
	}
	if err := app.VerifyAgainstReference(stream); err != nil {
		return nil, fmt.Errorf("fig10 run produced wrong output: %w", err)
	}
	res := &Fig10Result{
		Seq:       app.Seq,
		Cycles:    cycles,
		Events:    sys.K.Events(),
		Collector: sys.Collector,
		BufSizes:  map[string]int{"rlsq": bufs.Tok, "dct": bufs.Coef, "mc": bufs.Resid},
		Stream:    stream,
		App:       app,
	}
	res.Windows = analyzeWindows(app.Sink.Timeline, sys.Collector, res.BufSizes)
	return res, nil
}

// analyzeWindows slices the sampled buffer fillings at frame completion
// boundaries and picks each window's fullest input buffer.
func analyzeWindows(timeline []copro.FrameEvent, col *trace.Collector, bufs map[string]int) []FrameWindow {
	var out []FrameWindow
	var start uint64
	for i, ev := range timeline {
		w := FrameWindow{
			Coded: i, TRef: ev.TRef, Type: ev.Type,
			Start: start, End: ev.Cycle,
			MeanFill: map[string]float64{},
		}
		for _, stage := range fig10Stages {
			s := col.Series("dec/" + stage + ".in")
			if s == nil {
				continue
			}
			sum, n := 0.0, 0
			for k := range s.X {
				if s.X[k] >= w.Start && s.X[k] < w.End {
					sum += s.Y[k]
					n++
				}
			}
			fill := 0.0
			if n > 0 {
				fill = sum / float64(n) / float64(bufs[stage])
			}
			w.MeanFill[stage] = fill
		}
		// Backpressure fills every buffer upstream of the bottleneck, so
		// the bottleneck is the most-downstream congested stage: the last
		// stage in pipeline order whose input is substantially fuller
		// than its successor's, or the fullest stage if none stands out.
		w.Bottleneck = classifyBottleneck(w.MeanFill)
		out = append(out, w)
		start = ev.Cycle
	}
	return out
}

// classifyBottleneck picks the most-downstream stage (pipeline order
// rlsq → dct → mc) whose input buffer is congested. A stage counts as
// congested when its input fill exceeds a threshold; upstream buffers
// fill up behind a congested stage, so the last congested stage is the
// true bottleneck.
func classifyBottleneck(fill map[string]float64) string {
	const congested = 0.45
	for i := len(fig10Stages) - 1; i >= 0; i-- {
		if fill[fig10Stages[i]] >= congested {
			return fig10Stages[i]
		}
	}
	best, bestV := "", -1.0
	for _, stage := range fig10Stages {
		if fill[stage] > bestV {
			best, bestV = stage, fill[stage]
		}
	}
	return best
}

// RotationSummary counts, per frame type, how often each stage was the
// bottleneck — the paper's qualitative Figure 10 finding is that the
// majority bottleneck rotates I→RLSQ, P→DCT, B→MC.
func (r *Fig10Result) RotationSummary() map[media.FrameType]map[string]int {
	out := map[media.FrameType]map[string]int{}
	for _, w := range r.Windows {
		m := out[w.Type]
		if m == nil {
			m = map[string]int{}
			out[w.Type] = m
		}
		m[w.Bottleneck]++
	}
	return out
}

// MajorityBottleneck returns the most frequent bottleneck for a frame
// type, or "" if the type never occurred.
func (r *Fig10Result) MajorityBottleneck(t media.FrameType) string {
	counts := r.RotationSummary()[t]
	best, bestN := "", 0
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if counts[n] > bestN {
			best, bestN = n, counts[n]
		}
	}
	return best
}

// UtilizationReport summarizes coprocessor busy fractions (the
// architecture view of Figure 9).
type UtilizationReport struct {
	Name string
	Busy float64
}

// Utilizations returns the busy fraction of every instantiated
// coprocessor, sorted by name.
func (s *System) Utilizations() []UtilizationReport {
	names := s.CoproNames()
	sort.Strings(names)
	out := make([]UtilizationReport, 0, len(names))
	for _, n := range names {
		out = append(out, UtilizationReport{Name: n, Busy: s.Shell(n).Utilization()})
	}
	return out
}
