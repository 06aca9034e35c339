// Command benchmark is the repository's benchmark: the only source of
// performance claims for this repo. It drives the public functions of
// eclipse, internal/media, internal/serve and internal/cluster from outside,
// verifies every output against the offline codec or the pinned simulator
// statistics, and prints every metric by name with its unit. See README.md
// in this directory for the workloads, the metrics and the measurement
// protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	blocks    int
	selfcheck bool
	tiny      bool // tiny inputs: set by the smoke test only
	traceOut  string
}

func (o options) sizes() sizes {
	if o.tiny {
		return tinySizes
	}
	return fullSizes
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is printed before the result: where and how the numbers were taken.
type record struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Traced      bool      `json:"traced"`
	Host        hostShape `json:"host"`
	Blocks      int       `json:"blocks"`
	BlocksQuiet int       `json:"blocks_quiet"`
	CalMs       float64   `json:"client.cal_ms"`
	CalSpread   float64   `json:"client.cal_spread"`
	StealRatio  float64   `json:"client.steal_ratio"`
	RawP50Ms    float64   `json:"client.raw_p50_ms"`
	Disturbed   bool      `json:"disturbed"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "sim_fig10 | decode_cold | xcode_cold | gateway_zipf | tenant_open")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 16, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1: depth-ladder run that reports the per-layer metrics and writes the trace")
	flag.IntVar(&o.blocks, "blocks", 0, "measure exactly this many blocks instead of -seconds")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "corrupt one expected output: the run must fail")
	flag.StringVar(&o.traceOut, "trace-out", "trace.json", "where -trace 1 writes its spans")
	flag.Parse()

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, printing the human-readable report to w.
func run(o options, w io.Writer) (*result, error) {
	sp, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return nil, fmt.Errorf("bad -seconds or -trace")
	}
	var res *result
	var rec record
	if o.trace == 1 {
		res, rec, err = runTraced(sp, o)
	} else {
		res, rec, err = runGated(sp, o)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if rec.Disturbed {
		fmt.Fprintf(w, "disturbed: calibration spread %.3f over the quiet blocks exceeds 1.25\n", rec.CalSpread)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "record: %s\n", line)
	return res, nil
}

// measuredPhase is the outcome of measure: the blocks plus how the machine
// behaved while they ran.
type measuredPhase struct {
	blocks []block
	late   time.Duration
	steal  float64
}

// measure runs the workload's block nBlocks times, or, with nBlocks 0, until
// the phase has lasted `seconds` (never fewer than minBlocks). A calibration
// burst separates every two blocks; it runs after the block has drained.
func measure(w workload, cal *calibrator, seconds, nBlocks int) measuredPhase {
	var ph measuredPhase
	total0, steal0, haveStat := procStat()
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	calBefore := cal.burst()
	for {
		cpu0, alloc0, t0 := cpuTime(), heapAllocBytes(), time.Now()
		br := w.runBlock()
		b := block{wall: time.Since(t0), cpu: cpuTime() - cpu0, alloc: heapAllocBytes() - alloc0, samples: br.samples}
		b.calBefore, b.calAfter = calBefore, cal.burst()
		calBefore = b.calAfter
		ph.blocks = append(ph.blocks, b)
		ph.late += br.late
		n := len(ph.blocks)
		if nBlocks > 0 {
			if n >= nBlocks {
				break
			}
		} else if elapsed := time.Since(start); n >= minBlocks && elapsed+elapsed/time.Duration(n) > budget {
			break // one more block would overrun the budget
		}
	}
	if total1, steal1, ok := procStat(); ok && haveStat && total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return ph
}

// setUp builds the workload `times` times, keeping the last, and returns the
// median speed-corrected set-up time in seconds.
func setUp(sp spec, o options, cal *calibrator, times int) (workload, float64, error) {
	var w workload
	var took []float64
	for r := 0; r < times; r++ {
		if w != nil {
			w.close()
		}
		w = sp.make(o.seed, o.sizes())
		var total time.Duration
		err := w.setup(func(fn func() error) error {
			d, err := cal.timed(fn)
			total += d
			return err
		})
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		took = append(took, total.Seconds())
	}
	return w, median(took), nil
}

func runGated(sp spec, o options) (*result, record, error) {
	cal := &calibrator{}
	w, setupS, err := setUp(sp, o, cal, o.sizes().setupRepeats)
	if err != nil {
		return nil, record{}, err
	}
	defer w.close()
	if o.selfcheck {
		w.corrupt()
	}
	runtime.GC() // once, so set-up garbage is not charged to the first block; never inside the phase
	ph := measure(w, cal, o.seconds, o.blocks)
	est, err := estimateBlocks(ph.blocks, sp.sloMs, sp.openLoop)
	if err != nil {
		return nil, record{}, err
	}
	m := metricSet{}
	m.put("setup_s", setupS, "s")
	m.put("p50_ms", est.P50Ms, "ms")
	m.put("throughput_rps", est.ThroughputRps, "1/s")
	m.put("slo_ok_ratio", est.SloOkRatio, "ratio")
	m.put("ok_ratio", est.OkRatio, "ratio")
	m.put("cpu_ms_per_op", est.CPUMsPerOp, "ms")
	m.put("alloc_kb_per_op", est.AllocKBPerOp, "KiB")
	res := &result{Correct: est.Failed == 0, Attempted: est.Ops, Failed: est.Failed, Metrics: m}
	return res, newRecord(sp, o, cal, est, ph), nil
}

func newRecord(sp spec, o options, cal *calibrator, est estimate, ph measuredPhase) record {
	return record{
		Workload: sp.name, Seed: o.seed, Traced: o.trace == 1, Host: host(),
		Blocks: est.Blocks, BlocksQuiet: est.BlocksQuiet,
		CalMs:      median(cal.bursts),
		CalSpread:  est.QuietCalSpread,
		StealRatio: ph.steal,
		RawP50Ms:   est.RawP50Ms,
		Disturbed:  est.QuietCalSpread > 1.25,
	}
}

// runTraced produces every per-layer metric. The layer metrics describe the
// stack, not the workload: each of the five workloads is set up in turn, its
// ladder replayed and its layer counters read, so the same names come out
// whatever -workload says. -workload selects whose client.* figures are
// reported and whose spans go to the trace file.
func runTraced(sp spec, o options) (*result, record, error) {
	cal := &calibrator{}
	out := metricSet{}
	epoch := time.Now()
	var res *result
	var rec record
	for _, s := range specs {
		err := func() error {
			w, _, err := setUp(s, o, cal, 1)
			if err != nil {
				return err
			}
			defer w.close()
			rungs, n, err := w.ladder()
			if err != nil {
				return err
			}
			selected := s.name == sp.name
			var ph measuredPhase
			var est estimate
			if selected {
				ph = measure(w, cal, 0, max(o.blocks, minBlocks))
				if est, err = estimateBlocks(ph.blocks, s.sloMs, s.openLoop); err != nil {
					return err
				}
			}
			lad, err := runLadder(rungs, n, epoch)
			if err != nil {
				return err
			}
			if !selected {
				return w.layerMetrics(lad, out)
			}
			if err := writeTrace(o.traceOut, s.name, o.seed, lad.spans); err != nil {
				return err
			}
			rec = newRecord(s, o, cal, est, ph)
			res = &result{Correct: est.Failed == 0, Attempted: est.Ops, Failed: est.Failed, Metrics: out}
			out.put("client.ops", float64(est.Ops), "count")
			out.put("client.blocks_quiet", float64(est.BlocksQuiet), "count")
			out.put("client.raw_p50_ms", est.RawP50Ms, "ms")
			out.put("client.p90_ms", est.P90Ms, "ms")
			out.put("client.p99_ms", est.P99Ms, "ms")
			out.put("client.late_ms", ms(ph.late)/float64(est.Ops), "ms")
			out.put("client.steal_ratio", ph.steal, "ratio")
			out.put("client.net_self_ms", lad.selfMs[rungs[0].name], "ms")
			out.put("client.trace_overhead_ratio", lad.p50Ms[rungs[0].name]/est.RawP50Ms-1, "ratio")
			return w.layerMetrics(lad, out)
		}()
		if err != nil {
			return nil, rec, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if err := kernelMetrics(out); err != nil {
		return nil, rec, err
	}
	rec.CalMs = median(cal.bursts)
	out.put("client.cal_ms", rec.CalMs, "ms")
	out.put("client.cal_spread", spread(cal.bursts), "ratio")
	return res, rec, nil
}
