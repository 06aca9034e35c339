// Package metrics is the measurement kit both serving tiers share: the
// lock-free latency histogram their registries are made of (hist.go)
// and the handful of functions that render one Prometheus text-format
// family each (prom.go). It is deliberately not a registry: each tier's
// Metrics struct keeps its exported atomic fields, and its
// WritePrometheus is a table of calls into this package.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket 0
// holds sub-microsecond observations; bucket i holds durations in
// (2^(i-1), 2^i] microseconds; the last bucket is a catch-all (≈9 min
// and beyond at 39 buckets).
const histBuckets = 40

// Hist is a lock-free latency histogram: fixed power-of-two buckets over
// microseconds, updated with a single atomic add per observation. It is
// safe for concurrent Observe and Snapshot; quantiles are approximate
// (bucket-midpoint), which is all a /metrics endpoint needs.
type Hist struct {
	count atomic.Uint64
	sumNs atomic.Int64
	b     [histBuckets]atomic.Uint64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	i := bits.Len64(uint64(us))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketUpperUS returns bucket i's inclusive upper bound in microseconds.
func BucketUpperUS(i int) uint64 {
	if i <= 0 {
		return 1
	}
	return 1 << uint(i)
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	h.b[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Mean returns the mean latency, or 0 with no samples.
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sumNs.Load()) / n)
}

// Quantile returns an approximation of the q-quantile (0 < q ≤ 1): the
// midpoint of the bucket containing the q·count-th sample.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.b[i].Load()
		if cum >= rank {
			hi := BucketUpperUS(i)
			lo := hi / 2
			if i == 0 {
				lo = 0
			}
			return time.Duration((lo + hi) / 2 * uint64(time.Microsecond))
		}
	}
	return time.Duration(BucketUpperUS(histBuckets-1)) * time.Microsecond
}
