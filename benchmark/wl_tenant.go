package main

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/serve"
)

const (
	tenantBronzeShare = 0.15
	tenantQueueCap    = 64 // deep enough that the frozen rate is never refused; a 429 is still a miss
)

type arrival struct {
	due time.Duration // offset from block start
	rq  request
}

// tenantWorkload is tenant_open: open loop, no sockets. Requests arrive on a
// seeded schedule (periodic slots with full-slot jitter, see setup) straight
// into the handler of one eclipse-serve (cache off, two workers): tenant gold
// (weight 3) sends QCIF decodes, tenant bronze (weight 1) sends 26-frame
// transcodes. Admission, weighted round-robin and slice preemption decide
// the latency here and nowhere else.
// One arrival pattern is drawn from the seed and replayed every block; the
// block ends when the last response is in.
type tenantWorkload struct {
	seed int64
	sz   sizes

	arrivals []arrival
	srv      *serve.Server
	pool     *media.SyncFramePool
	recs     []respRecorder
	rec      respRecorder
}

func (w *tenantWorkload) setup(step stepFn) error {
	// The schedule is periodic with full-slot jitter: arrival i falls
	// uniformly inside the i-th of n equal slots, and one slot in every
	// n/nBronze carries a bronze job. A plain Poisson draw of this length
	// makes the median depend on where the seed happens to put its bursts
	// (p50 moved 13 % between seeds); stratifying keeps the offered work and
	// its spacing equal across seeds while the seed still decides every
	// arrival time. The last fifth of the window is left empty so that a
	// healthy server drains inside the window and the block length does not
	// depend on the seed.
	n := max(2, int(w.sz.tenantRate*w.sz.tenantWindow.Seconds()+0.5))
	nBronze := max(1, int(tenantBronzeShare*float64(n)+0.5))
	slot := int64(w.sz.tenantWindow) * 4 / 5 / int64(n)
	rng := rand.New(rand.NewSource(w.seed))
	dues := make([]time.Duration, n)
	isBronze := make([]bool, n)
	for i := range dues {
		dues[i] = time.Duration(int64(i)*slot + rng.Int63n(slot))
	}
	for k := 0; k < nBronze; k++ {
		lo, hi := k*n/nBronze, (k+1)*n/nBronze
		isBronze[lo+rng.Intn(hi-lo)] = true
	}

	// One clip per bronze arrival and up to eight for gold: the more distinct
	// clips a block averages over, the less one seed's content weighs.
	gold, err := makeClips(step, min(8, n-nBronze), 4, func(i int) (*clip, error) {
		return makeClip(clipSpec{w.sz.w, w.sz.h, w.sz.frames, 12, 3}, clipSeed(w.seed, i), false)
	})
	if err != nil {
		return err
	}
	bronze, err := makeClips(step, nBronze, 4, func(i int) (*clip, error) {
		return makeClip(clipSpec{w.sz.bronzeW, w.sz.bronzeH, w.sz.xcodeFrames, 13, 3}, clipSeed(w.seed, 100+i), true)
	})
	if err != nil {
		return err
	}
	g, b := 0, 0
	for i, due := range dues {
		if isBronze[i] {
			w.arrivals = append(w.arrivals, arrival{due, xcodeReq(bronze[b%len(bronze)], "bronze")})
			b++
		} else {
			w.arrivals = append(w.arrivals, arrival{due, decodeReq(gold[g%len(gold)], "gold")})
			g++
		}
	}
	w.recs = make([]respRecorder, n)

	return step(func() error {
		w.srv = serve.New(serve.Config{
			CacheBytes: -1,
			Workers:    2,
			Tenants: []serve.TenantConfig{
				{Name: "gold", Weight: 3, QueueCap: tenantQueueCap},
				{Name: "bronze", Weight: 1, QueueCap: tenantQueueCap},
			},
		})
		w.pool = media.NewSyncFramePool(256)
		// Warm-up by count: each distinct request once, unloaded.
		for _, c := range gold {
			ok, err := call(w.srv.Handler(), decodeReq(c, "gold"), &w.rec)
			if err := verified(ok, err); err != nil {
				return err
			}
		}
		for _, c := range bronze {
			ok, err := call(w.srv.Handler(), xcodeReq(c, "bronze"), &w.rec)
			if err := verified(ok, err); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *tenantWorkload) runBlock() blockResult {
	res := blockResult{samples: make([]sample, len(w.arrivals))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range w.arrivals {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		res.late += time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := call(w.srv.Handler(), a.rq, &w.recs[i])
			// Open loop: the clock starts when the request was due, so a
			// stall is charged to every request it delays.
			res.samples[i] = sample{lat: time.Since(due), ok: ok && err == nil}
		}()
	}
	time.Sleep(time.Until(start.Add(w.sz.tenantWindow)))
	wg.Wait()
	return res
}

func (w *tenantWorkload) corrupt() { w.arrivals[0].rq.want = flipByte(w.arrivals[0].rq.want) }

func (w *tenantWorkload) ladder() ([]rung, int, error) {
	at := func(op int) request { return w.arrivals[op%len(w.arrivals)].rq }
	isXcode := func(rq request) bool { return rq.tenant == "bronze" }
	return []rung{
		{"serve.handler", func(op int) error {
			ok, err := call(w.srv.Handler(), at(op), &w.rec)
			return verified(ok, err)
		}},
		{"serve.job", func(op int) error { return runJob(w.srv, w.pool, at(op), isXcode(at(op))) }},
		{"media.codec", func(op int) error { return offline(at(op), isXcode(at(op))) }},
		{"media.entropy", func(op int) error {
			_, err := media.IndexGOPs(at(op).clip.stream, nil)
			return err
		}},
	}, w.sz.ladderOps["tenant_open"], nil
}

// layerMetrics runs two loaded blocks and compares them with the unloaded
// handler rung of the ladder: the difference is time spent waiting for a
// worker, which is what the scheduler decides.
func (w *tenantWorkload) layerMetrics(lad *ladderResult, out metricSet) error {
	sched := w.srv.Scheduler()
	tenants := func() (rejects uint64, service float64) {
		for _, t := range sched.SnapshotTenants() {
			rejects += t.Rejects
			service += t.ServiceSec
		}
		return
	}
	rej0, svc0 := tenants()
	var all, gold, bronze []float64
	var wall time.Duration
	preempts, ops := 0, 0
	for b := 0; b < 2; b++ {
		t0 := time.Now()
		res := w.runBlock()
		wall += time.Since(t0)
		for i, s := range res.samples {
			l := ms(s.lat)
			all = append(all, l)
			if w.arrivals[i].rq.tenant == "gold" {
				gold = append(gold, l)
			} else {
				bronze = append(bronze, l)
			}
			p, _ := strconv.Atoi(w.recs[i].hdr.Get("X-Job-Preempts"))
			preempts += p
			ops++
		}
	}
	rej1, svc1 := tenants()
	out.put("serve.wait_ms", median(all)-lad.p50Ms["serve.handler"], "ms")
	out.put("serve.preempts_per_op", float64(preempts)/float64(ops), "ratio")
	out.put("serve.rejects", float64(rej1-rej0), "count")
	out.put("serve.busy_ratio", (svc1-svc0)/(2*wall.Seconds()), "ratio")
	out.put("serve.gold_p50_ms", median(gold), "ms")
	out.put("serve.bronze_p50_ms", median(bronze), "ms")
	return nil
}

func (w *tenantWorkload) close() {
	if w.srv != nil {
		w.srv.Shutdown(context.Background())
	}
}
