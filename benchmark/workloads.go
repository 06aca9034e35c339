package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number; metricSet maps metric names to them.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// stepFn runs one piece of set-up between calibration bursts so its time can
// be speed-corrected; pieces should stay under about 250 ms.
type stepFn func(fn func() error) error

// blockResult is what one block's load phase produced: a sample per op and
// the summed time the load generator itself was late or idle.
type blockResult struct {
	samples []sample
	late    time.Duration
}

// A workload builds its inputs from the seed, replays one fixed op list per
// block, and knows the depth ladder and layer counters of its own stack.
type workload interface {
	setup(step stepFn) error
	runBlock() blockResult
	// corrupt damages one expected output (-selfcheck): a run after it must
	// report ok_ratio below 1, which shows verification is not vacuous.
	corrupt()
	// ladder returns the rungs, outermost first, and how many ops to replay.
	ladder() ([]rung, int, error)
	// layerMetrics adds the per-layer metrics this workload's stack owns.
	layerMetrics(lad *ladderResult, out metricSet) error
	close()
}

// spec is the frozen definition of a workload. sloMs and the open-loop rate
// were measured once on the seed commit and must not be retuned: a change to
// them redefines slo_ok_ratio.
type spec struct {
	name     string
	sloMs    float64 // speed-corrected latency limit of slo_ok_ratio
	openLoop bool    // requests are sent on a schedule, not when the last one returned
	make     func(seed int64, sz sizes) workload
}

var specs = []spec{
	{"sim_fig10", 460, false, func(seed int64, sz sizes) workload { return &simWorkload{seed: seed, sz: sz} }},
	{"decode_cold", 26, false, func(seed int64, sz sizes) workload { return &serveWorkload{seed: seed, sz: sz} }},
	{"xcode_cold", 210, false, func(seed int64, sz sizes) workload { return &serveWorkload{seed: seed, sz: sz, xcode: true} }},
	{"gateway_zipf", 2, false, func(seed int64, sz sizes) workload { return &gatewayWorkload{seed: seed, sz: sz} }},
	{"tenant_open", 100, true, func(seed int64, sz sizes) workload { return &tenantWorkload{seed: seed, sz: sz} }},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sizes scales the workloads: full is what BENCHMARK.json measures, tiny is
// for the smoke test. Nothing else may differ between the two.
type sizes struct {
	// setupRepeats is how often a gated run sets up from scratch; setup_s is
	// the median, because one set-up of a second or two meets too much of the
	// machine's noise to be gated on its own.
	setupRepeats int

	w, h, frames int // the QCIF decode clip

	simClips int // fig10 clips; a block runs each once

	decodeClips, decodePasses int
	xcodeClips, xcodeFrames   int

	gwClips, gwW, gwH, gwFrames int
	gwBlockReqs                 int

	bronzeW, bronzeH int           // tenant_open's transcode clip (xcodeFrames long)
	tenantWindow     time.Duration // length of the arrival pattern replayed per block
	tenantRate       float64       // offered requests per second

	ladderOps map[string]int
}

var fullSizes = sizes{
	setupRepeats: 3,

	w: 176, h: 144, frames: 12,
	simClips:    4,
	decodeClips: 16, decodePasses: 3,
	xcodeClips: 8, xcodeFrames: 26,
	gwClips: 192, gwW: 64, gwH: 48, gwFrames: 4,
	gwBlockReqs: 4000,
	bronzeW:     96, bronzeH: 80,
	tenantWindow: time.Second,
	tenantRate:   30,
	// 64 ops where an op is cheap; fewer where one rung costs ~100 ms, so
	// that a traced run stays inside the driver's time limit.
	ladderOps: map[string]int{"sim_fig10": 8, "decode_cold": 64, "xcode_cold": 8, "gateway_zipf": 64, "tenant_open": 32},
}

var tinySizes = sizes{
	setupRepeats: 1,

	w: 48, h: 32, frames: 4,
	simClips:    2,
	decodeClips: 3, decodePasses: 1,
	xcodeClips: 2, xcodeFrames: 26,
	gwClips: 6, gwW: 32, gwH: 32, gwFrames: 3,
	gwBlockReqs: 60,
	bronzeW:     32, bronzeH: 32,
	tenantWindow: 40 * time.Millisecond,
	tenantRate:   200,
	ladderOps:    map[string]int{"sim_fig10": 2, "decode_cold": 4, "xcode_cold": 2, "gateway_zipf": 8, "tenant_open": 4},
}

// closedLoop issues ops 0..n-1 from `clients` callers; each takes the next
// unissued op only after its previous one completed. It returns a sample per
// op and the time the callers spent between ops.
func closedLoop(clients, n int, do func(client, i int) bool) blockResult {
	res := blockResult{samples: make([]sample, n)}
	var next atomic.Int64
	var busy atomic.Int64
	loop := func(client int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			t0 := time.Now()
			ok := do(client, i)
			lat := time.Since(t0)
			res.samples[i] = sample{lat: lat, ok: ok}
			busy.Add(int64(lat))
		}
	}
	t0 := time.Now()
	if clients == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(c)
			}(c)
		}
		wg.Wait()
	}
	res.late = time.Duration(int64(clients)*int64(time.Since(t0)) - busy.Load())
	return res
}
