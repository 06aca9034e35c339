package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"eclipse/internal/media"
	"eclipse/internal/serve"
)

// serveWorkload is decode_cold and xcode_cold: closed loop, one client over
// one loopback connection to a single eclipse-serve with the result cache
// off, so every request runs its engine. decode_cold rotates /v1/decode over
// distinct QCIF clips (entropy parse → reconstruct, encode kernels idle);
// xcode_cold sends /v1/transcode over longer closed-GOP clips (motion search,
// FDCT, entropy write, the segmented engine), about 10× the decode cost.
type serveWorkload struct {
	seed  int64
	sz    sizes
	xcode bool

	clips []*clip
	reqs  []request // one block's op list

	srv  *serve.Server
	ts   *httptest.Server
	conn *httpConn
	pool *media.SyncFramePool
	rec  respRecorder
}

func (w *serveWorkload) name() string {
	if w.xcode {
		return "xcode_cold"
	}
	return "decode_cold"
}

func (w *serveWorkload) setup(step stepFn) error {
	// GOPN=13, GOPM=3 gives closed-GOP cuts, so the segmented transcode
	// engine fires at the shipping TranscodeSegments default.
	sp, n, passes := clipSpec{w.sz.w, w.sz.h, w.sz.frames, 12, 3}, w.sz.decodeClips, w.sz.decodePasses
	if w.xcode {
		sp, n, passes = clipSpec{w.sz.w, w.sz.h, w.sz.xcodeFrames, 13, 3}, w.sz.xcodeClips, 1
	}
	var err error
	if w.clips, err = makeClips(step, n, 4, func(i int) (*clip, error) {
		return makeClip(sp, clipSeed(w.seed, i), w.xcode)
	}); err != nil {
		return err
	}
	for p := 0; p < passes; p++ {
		for _, c := range w.clips {
			if w.xcode {
				w.reqs = append(w.reqs, xcodeReq(c, ""))
			} else {
				w.reqs = append(w.reqs, decodeReq(c, ""))
			}
		}
	}
	if err := step(func() error {
		w.srv = serve.New(serve.Config{CacheBytes: -1})
		w.ts = httptest.NewServer(w.srv.Handler())
		w.conn = newHTTPConn()
		w.pool = media.NewSyncFramePool(256)
		return nil
	}); err != nil {
		return err
	}
	// Warm-up by count: every distinct request once.
	for i := 0; i < n; i++ {
		if err := step(func() error {
			ok, _, err := w.conn.post(w.ts.URL, w.reqs[i])
			if err == nil && !ok {
				err = fmt.Errorf("%s warm-up: response %d differs from the offline codec", w.name(), i)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) runBlock() blockResult {
	return closedLoop(1, len(w.reqs), func(_, i int) bool {
		ok, _, err := w.conn.post(w.ts.URL, w.reqs[i])
		return ok && err == nil
	})
}

func (w *serveWorkload) corrupt() { w.reqs[0].want = flipByte(w.reqs[0].want) }

// runJob runs one request as a scheduler job, below the HTTP handler, built
// the way the handler builds it.
func runJob(srv *serve.Server, pool *media.SyncFramePool, rq request, xcode bool) error {
	ctx := context.Background()
	sched := srv.Scheduler()
	tenant := rq.tenant
	if tenant == "" {
		tenant = "default"
	}
	var j *serve.Job
	var err error
	if xcode {
		j, err = serve.NewTranscodeJobSegmented(ctx, tenant, rq.clip.stream, xcodeQ, pool,
			sched.DecodeWorkersFor(tenant), sched.EncodeWorkers(), sched.TranscodeSegmentsFor(tenant), srv.Metrics())
	} else {
		j, err = serve.NewDecodeJob(ctx, tenant, rq.clip.stream, pool, sched.DecodeWorkersFor(tenant))
	}
	if err != nil {
		return err
	}
	if err := sched.Submit(j); err != nil {
		return err
	}
	<-j.Done()
	_, err = j.Result()
	return err
}

// offline runs the request's codec work with no serving layer around it.
func offline(rq request, xcode bool) error {
	res, err := media.DecodeWithOptions(rq.clip.stream, media.DecodeOptions{Workers: 1})
	if err != nil || !xcode {
		return err
	}
	_, _, _, err = media.Encode(serve.TranscodeConfig(res.Seq, xcodeQ), res.DisplayFrames())
	return err
}

func (w *serveWorkload) ladder() ([]rung, int, error) {
	at := func(op int) request { return w.reqs[op%len(w.reqs)] }
	codec := "media.decode"
	if w.xcode {
		codec = "media.xcode"
	}
	return []rung{
		{"client.http", func(op int) error {
			ok, _, err := w.conn.post(w.ts.URL, at(op))
			return verified(ok, err)
		}},
		{"serve.handler", func(op int) error {
			ok, err := call(w.srv.Handler(), at(op), &w.rec)
			return verified(ok, err)
		}},
		{"serve.job", func(op int) error { return runJob(w.srv, w.pool, at(op), w.xcode) }},
		{codec, func(op int) error { return offline(at(op), w.xcode) }},
		{"media.entropy", func(op int) error {
			_, err := media.IndexGOPs(at(op).clip.stream, nil)
			return err
		}},
	}, w.sz.ladderOps[w.name()], nil
}

func verified(ok bool, err error) error {
	if err == nil && !ok {
		err = fmt.Errorf("response differs from the offline codec")
	}
	return err
}

func (w *serveWorkload) layerMetrics(lad *ladderResult, out metricSet) error {
	if w.xcode {
		return w.xcodeLayerMetrics(out)
	}
	out.put("serve.http_self_ms", lad.selfMs["client.http"], "ms")
	out.put("serve.handler_ms", lad.p50Ms["serve.handler"], "ms")
	out.put("serve.job_ms", lad.p50Ms["serve.job"], "ms")
	out.put("serve.job_self_ms", lad.selfMs["serve.job"], "ms")
	out.put("media.decode_ms", lad.p50Ms["media.decode"], "ms")
	out.put("media.recon_self_ms", lad.selfMs["media.decode"], "ms")
	out.put("media.entropy_ms", lad.p50Ms["media.entropy"], "ms")
	out.put("media.decode_fps", float64(w.sz.frames)/lad.p50Ms["media.decode"]*1e3, "1/s")

	var key, w2 []float64
	for _, c := range w.clips {
		t0 := time.Now()
		serve.DecodeKey(c.stream)
		key = append(key, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := media.DecodeWithOptions(c.stream, media.DecodeOptions{Workers: 2}); err != nil {
			return err
		}
		w2 = append(w2, ms(time.Since(t0)))
	}
	out.put("serve.key_ms", median(key), "ms")
	out.put("media.decode_w2_ms", median(w2), "ms")
	return w.cacheLayerMetrics(out)
}

// serveCacheShards is how many shards eclipse-serve splits its result cache
// into; a response larger than a shard's budget is never cached.
const serveCacheShards = 16

// cacheLayerMetrics replays the decode clips through a second server whose
// result cache holds one response per shard, forwards then backwards, so
// that clips sharing a shard evict each other and hits, fills and evictions
// all occur; it starts with a concurrent storm on one clip so that
// singleflight collapse occurs too.
func (w *serveWorkload) cacheLayerMetrics(out metricSet) error {
	var largest int64
	for _, c := range w.clips {
		largest = max(largest, int64(len(c.raw)))
	}
	srv := serve.New(serve.Config{CacheBytes: serveCacheShards * (largest + 4096)})
	defer srv.Shutdown(context.Background())
	// The storm comes first, while the cache is empty: one request leads,
	// the others arriving during its decode collapse onto it.
	var wg sync.WaitGroup
	storm := decodeReq(w.clips[0], "")
	var stormErrs [4]error
	for i := range stormErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := call(srv.Handler(), storm, &respRecorder{})
			stormErrs[i] = verified(ok, err)
		}()
	}
	wg.Wait()
	if err := errors.Join(stormErrs[:]...); err != nil {
		return err
	}
	var hit []float64
	order := make([]request, 0, 4*len(w.clips))
	for pass := 0; pass < 4; pass++ {
		for i := range w.clips {
			if pass%2 == 1 {
				i = len(w.clips) - 1 - i
			}
			order = append(order, decodeReq(w.clips[i], ""))
		}
	}
	for _, rq := range order {
		t0 := time.Now()
		ok, err := call(srv.Handler(), rq, &w.rec)
		d := time.Since(t0)
		if err := verified(ok, err); err != nil {
			return err
		}
		if w.rec.hdr.Get("X-Cache") == serve.CacheHit.String() {
			hit = append(hit, ms(d))
		}
	}
	snap := srv.Cache().Snapshot()
	out.put("serve.cache_hit_ms", median(hit), "ms")
	out.put("serve.cache_hit_ratio", ratio(snap.Hits, snap.Hits+snap.Misses+snap.Collapsed), "ratio")
	out.put("serve.cache_fills", float64(snap.Fills), "count")
	out.put("serve.cache_evictions", float64(snap.Evictions), "count")
	out.put("serve.collapsed", float64(snap.Collapsed), "count")
	return nil
}

// xcodeLayerMetrics times the encoder alone on pre-decoded frames and reads
// the transcode engine's counters over one pass of the op list.
func (w *serveWorkload) xcodeLayerMetrics(out metricSet) error {
	var enc []float64
	for _, c := range w.clips {
		res, err := media.Decode(c.stream)
		if err != nil {
			return err
		}
		frames := res.DisplayFrames()
		t0 := time.Now()
		if _, _, _, err := media.Encode(serve.TranscodeConfig(res.Seq, xcodeQ), frames); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
	}
	encMs := median(enc)
	out.put("media.encode_ms", encMs, "ms")
	out.put("media.encode_fps", float64(w.sz.xcodeFrames)/encMs*1e3, "1/s")

	met := w.srv.Metrics()
	seg0 := met.XcodeSegJobs.Load()
	stall0 := met.XcodePushStalls.Load() + met.XcodePullStalls.Load()
	for _, rq := range w.reqs {
		ok, err := call(w.srv.Handler(), rq, &w.rec)
		if err := verified(ok, err); err != nil {
			return err
		}
	}
	out.put("serve.xcode_seg_jobs", float64(met.XcodeSegJobs.Load()-seg0), "count")
	out.put("serve.xcode_stalls", float64(met.XcodePushStalls.Load()+met.XcodePullStalls.Load()-stall0), "count")
	out.put("serve.xcode_peak_frames", float64(met.XcodePeakFrames.Load()), "count")
	return nil
}

func (w *serveWorkload) close() {
	if w.conn != nil {
		w.conn.close()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Shutdown(context.Background())
	}
}
