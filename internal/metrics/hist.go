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

// The buckets are log-linear over microseconds. Bucket 0 holds
// sub-microsecond observations; octave k = 0 … octaves-1 holds
// durations in [2^k, 2^(k+1)) µs, split into subBuckets equal
// sub-buckets, so a bucket midpoint is within 1/(2·subBuckets) = 6.25 %
// of any sample in it; the last bucket is a catch-all (≈76 h and beyond).
const (
	subBuckets  = 8
	octaves     = 38
	histBuckets = 1 + octaves*subBuckets + 1
)

// Hist is a lock-free latency histogram over fixed log-linear buckets,
// updated with a single atomic add per observation (plus count and
// sum). It is safe for concurrent Observe and Snapshot; quantiles are
// bucket midpoints.
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
	k := bits.Len64(uint64(us)) - 1
	if k >= octaves {
		return histBuckets - 1
	}
	base := time.Duration(1<<k) * time.Microsecond
	return 1 + k*subBuckets + int((d-base)*subBuckets/base)
}

// bucketRange returns the span [lo, hi) of bucket i, the catch-all
// excepted.
func bucketRange(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, time.Microsecond
	}
	base, m := time.Duration(1<<((i-1)/subBuckets))*time.Microsecond, time.Duration((i-1)%subBuckets)
	return base + base*m/subBuckets, base + base*(m+1)/subBuckets
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
	rank := min(max(uint64(q*float64(total)), 1), total)
	var cum uint64
	for i := range histBuckets - 1 {
		if cum += h.b[i].Load(); cum >= rank {
			lo, hi := bucketRange(i)
			return (lo + hi) / 2
		}
	}
	return time.Duration(1<<octaves) * time.Microsecond // the catch-all's lower bound
}
