package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The calibration kernel is frozen: 400 000 xorshift64 steps, each adding
// into a 32 KiB table. Changing the step count, the table size or the
// reference time redefines every speed-corrected metric of this benchmark.
const (
	calSteps = 400_000
	calRefMs = 1.000 // a block's speed factor is its calibration time over this
)

var calTab [4096]uint64

func calKernel() time.Duration {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calTab[x&4095] += x
	}
	return time.Since(t0)
}

// calibrator runs calibration bursts and remembers every one of them, so a
// run can report how steady the machine was (cal_ms, cal_spread).
type calibrator struct {
	bursts []float64 // ms, one per burst
}

// burst runs 5 kernels, discards the first 2 and returns the minimum of the
// last 3 in milliseconds. Callers run it only while the system under test is
// drained, so it sees the machine and never the program.
func (c *calibrator) burst() float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		ms := float64(calKernel().Nanoseconds()) / 1e6
		if i >= 2 && (best == 0 || ms < best) {
			best = ms
		}
	}
	c.bursts = append(c.bursts, best)
	return best
}

// timed runs fn between two bursts and returns its speed-corrected wall time.
func (c *calibrator) timed(fn func() error) (time.Duration, error) {
	before := c.burst()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	after := c.burst()
	return time.Duration(float64(wall) / speedFactor(before, after)), err
}

func speedFactor(calBefore, calAfter float64) float64 {
	return (calBefore + calAfter) / 2 / calRefMs
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is p90/p10 of a set of calibration bursts.
func spread(bursts []float64) float64 {
	if len(bursts) == 0 {
		return 1
	}
	return quantile(bursts, 0.9) / quantile(bursts, 0.1)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative number of heap bytes allocated.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// procStat returns the machine's total and stolen jiffies from /proc/stat;
// ok is false where the file is missing or has no steal column.
func procStat() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// hostShape describes the machine a record was measured on.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func host() hostShape {
	h := hostShape{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
