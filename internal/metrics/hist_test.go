package metrics

import (
	"testing"
	"time"
)

// TestHistogram checks the lock-free histogram's bucketing, mean, and
// quantile approximation.
func TestHistogram(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zero")
	}
	// 100 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms bucket
	// (bucket (512µs,1024µs], midpoint 768µs), p99 near 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if h.Count() != 110 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 %v outside the 1ms bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 50*time.Millisecond || p99 > 200*time.Millisecond {
		t.Fatalf("p99 %v outside the 100ms bucket", p99)
	}
	if p50 > p99 {
		t.Fatal("quantiles not monotone")
	}
	mean := h.Mean()
	want := (100*time.Millisecond*10 + time.Millisecond*100) / 110
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean %v, want ≈%v", mean, want)
	}
	var total uint64
	for i := range h.b {
		total += h.b[i].Load()
	}
	if total != h.Count() || h.Count() != 110 {
		t.Fatalf("buckets sum %d, count %d", total, h.Count())
	}
	// Extremes.
	if bucketFor(0) != 0 || bucketFor(-time.Second) != 0 {
		t.Fatal("non-positive durations must land in bucket 0")
	}
	if bucketFor(365*24*time.Hour) != histBuckets-1 {
		t.Fatal("huge durations must land in the catch-all bucket")
	}
}
