package main

import (
	"fmt"
	"sort"
	"time"
)

// minBlocks is the fewest blocks the estimator accepts: below it the quiet
// third holds fewer than four blocks and is no longer a robust selection.
const minBlocks = 12

// A sample is one operation: its raw latency (closed loop: from issue; open
// loop: from the time it was due) and whether its output verified correct.
type sample struct {
	lat time.Duration
	ok  bool
}

// A block is one repetition of the workload's fixed op list, flanked by
// calibration bursts. Every block of a run has identical content, so the
// variation between blocks is noise only.
type block struct {
	calBefore, calAfter float64 // ms
	wall                time.Duration
	cpu                 time.Duration
	alloc               uint64
	samples             []sample
}

func (b *block) factor() float64 { return speedFactor(b.calBefore, b.calAfter) }

// meanCorrectedLat is the ranking key of the quiet-third selection.
func (b *block) meanCorrectedLat() float64 {
	if len(b.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range b.samples {
		sum += float64(s.lat)
	}
	return sum / float64(len(b.samples)) / b.factor()
}

// estimate holds the end-to-end metrics and the figures that say how far to
// trust them.
type estimate struct {
	P50Ms         float64
	ThroughputRps float64
	SloOkRatio    float64
	OkRatio       float64
	CPUMsPerOp    float64
	AllocKBPerOp  float64

	Ops, Failed    int
	Blocks         int
	BlocksQuiet    int
	QuietSamples   int
	RawP50Ms       float64 // uncorrected, all blocks: what PR 11/12 reported
	P90Ms, P99Ms   float64 // corrected, quiet third
	QuietCalSpread float64 // p90/p10 of the bursts flanking the quiet blocks
}

// estimateBlocks turns a run's blocks into metrics. Noise on a shared box is
// one-sided (it only slows), so the timing metrics use the ⌊N/3⌋ blocks with
// the lowest mean speed-corrected latency; counts and correctness use all.
//
// openLoop says the blocks were paced by the wall clock, not by the program:
// their length then does not scale with the machine's speed, so throughput
// is taken over uncorrected time.
func estimateBlocks(blocks []block, sloMs float64, openLoop bool) (estimate, error) {
	var e estimate
	if len(blocks) < minBlocks {
		return e, fmt.Errorf("estimator: %d blocks, need at least %d", len(blocks), minBlocks)
	}
	e.Blocks = len(blocks)
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return blocks[order[a]].meanCorrectedLat() < blocks[order[b]].meanCorrectedLat()
	})
	quiet := order[:len(blocks)/3]
	e.BlocksQuiet = len(quiet)

	var raw []float64
	var alloc uint64
	okAll := 0
	for i := range blocks {
		alloc += blocks[i].alloc
		for _, s := range blocks[i].samples {
			e.Ops++
			if s.ok {
				okAll++
			}
			raw = append(raw, ms(s.lat))
		}
	}
	if e.Ops == 0 {
		return e, fmt.Errorf("estimator: no operations in %d blocks", len(blocks))
	}
	e.Failed = e.Ops - okAll
	e.OkRatio = float64(okAll) / float64(e.Ops)
	e.AllocKBPerOp = float64(alloc) / 1024 / float64(e.Ops)
	e.RawP50Ms = median(raw)

	var lats, bursts []float64
	var wallS, cpuMs float64
	sloOK := 0
	for _, i := range quiet {
		b := &blocks[i]
		f := b.factor()
		bursts = append(bursts, b.calBefore, b.calAfter)
		if openLoop {
			wallS += b.wall.Seconds()
		} else {
			wallS += b.wall.Seconds() / f
		}
		cpuMs += ms(b.cpu) / f
		for _, s := range b.samples {
			l := ms(s.lat) / f
			lats = append(lats, l)
			if s.ok && l <= sloMs {
				sloOK++
			}
		}
	}
	e.QuietSamples = len(lats)
	if e.QuietSamples == 0 || wallS <= 0 {
		return e, fmt.Errorf("estimator: quiet third is empty")
	}
	e.P50Ms = quantile(lats, 0.5)
	e.P90Ms = quantile(lats, 0.9)
	e.P99Ms = quantile(lats, 0.99)
	e.ThroughputRps = float64(e.QuietSamples) / wallS
	e.SloOkRatio = float64(sloOK) / float64(e.QuietSamples)
	e.CPUMsPerOp = cpuMs / float64(e.QuietSamples)
	e.QuietCalSpread = spread(bursts)
	return e, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
