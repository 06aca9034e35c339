package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// synthBlocks builds n identical blocks of 50 ops at trueMs each (±1 %),
// with calibration exactly at the reference.
func synthBlocks(n int, trueMs float64, rng *rand.Rand) []block {
	blocks := make([]block, n)
	for i := range blocks {
		b := &blocks[i]
		b.calBefore, b.calAfter = calRefMs, calRefMs
		for k := 0; k < 50; k++ {
			lat := time.Duration(trueMs * (0.99 + 0.02*rng.Float64()) * 1e6)
			b.samples = append(b.samples, sample{lat: lat, ok: true})
			b.wall += lat
			b.cpu += lat / 2
		}
		b.alloc = 50 << 10
	}
	return blocks
}

// scale slows a block down by f; withCal says whether calibration saw it.
func scale(b *block, f float64, withCal bool) {
	for k := range b.samples {
		b.samples[k].lat = time.Duration(float64(b.samples[k].lat) * f)
	}
	b.wall = time.Duration(float64(b.wall) * f)
	b.cpu = time.Duration(float64(b.cpu) * f)
	if withCal {
		b.calBefore *= f
		b.calAfter *= f
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.4f, want %.4f within %.1f %%", name, got, want, tol*100)
	}
}

// Noise the calibration does not see, on 60 % of the blocks, must not move
// the quiet-third estimates.
func TestEstimatorIgnoresInflatedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := synthBlocks(30, 10, rng)
	for _, i := range rng.Perm(30)[:18] {
		scale(&blocks[i], 1.5+1.5*rng.Float64(), false)
	}
	e, err := estimateBlocks(blocks, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "p50_ms", e.P50Ms, 10, 0.02)
	within(t, "throughput_rps", e.ThroughputRps, 100, 0.02)
	within(t, "cpu_ms_per_op", e.CPUMsPerOp, 5, 0.02)
	if e.BlocksQuiet != 10 || e.SloOkRatio != 1 || e.OkRatio != 1 {
		t.Errorf("quiet=%d slo=%v ok=%v, want 10, 1, 1", e.BlocksQuiet, e.SloOkRatio, e.OkRatio)
	}
	within(t, "alloc_kb_per_op", e.AllocKBPerOp, 1, 1e-9)
	if e.RawP50Ms < 12 {
		t.Errorf("raw p50 %.2f should show the inflation the estimator removed", e.RawP50Ms)
	}
}

// A slowdown that ops and calibration share is the machine, not the
// program: it must cancel.
func TestEstimatorCancelsUniformSlowdown(t *testing.T) {
	base := synthBlocks(24, 10, rand.New(rand.NewSource(3)))
	slow := synthBlocks(24, 10, rand.New(rand.NewSource(3)))
	for i := range slow {
		scale(&slow[i], 1.2, true)
	}
	a, err := estimateBlocks(base, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := estimateBlocks(slow, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "p50_ms", b.P50Ms, a.P50Ms, 0.01)
	within(t, "throughput_rps", b.ThroughputRps, a.ThroughputRps, 0.01)
	within(t, "cpu_ms_per_op", b.CPUMsPerOp, a.CPUMsPerOp, 0.01)
	within(t, "raw p50", b.RawP50Ms, 1.2*a.RawP50Ms, 0.01)
}

func TestEstimatorNeedsTwelveBlocks(t *testing.T) {
	if _, err := estimateBlocks(synthBlocks(minBlocks-1, 10, rand.New(rand.NewSource(1))), 20, false); err == nil {
		t.Fatalf("%d blocks gave a number, want an error", minBlocks-1)
	}
	if _, err := estimateBlocks(synthBlocks(minBlocks, 10, rand.New(rand.NewSource(1))), 20, false); err != nil {
		t.Fatal(err)
	}
}

// A failed or late op misses the limit; failures count over all blocks.
func TestEstimatorCountsMisses(t *testing.T) {
	blocks := synthBlocks(12, 10, rand.New(rand.NewSource(5)))
	for i := range blocks {
		blocks[i].samples[0].ok = false                  // fails
		blocks[i].samples[1].lat = 50 * time.Millisecond // correct but late
	}
	e, err := estimateBlocks(blocks, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "ok_ratio", e.OkRatio, 49.0/50, 1e-9)
	within(t, "slo_ok_ratio", e.SloOkRatio, 48.0/50, 1e-9)
	if e.Failed != 12 {
		t.Errorf("failed = %d, want 12", e.Failed)
	}
}
