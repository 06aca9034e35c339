package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"eclipse/internal/cluster"
	"eclipse/internal/serve"
)

const (
	gwBackends = 2
	gwClients  = 2 // closed loop, one connection each; never more than nproc
	gwZipfS    = 1.1
	gwDecodes  = 0.70 // share of decode requests; the rest transcode
)

// gatewayWorkload is gateway_zipf: two closed-loop clients → eclipse-gateway
// (L1 = ¼ of the catalog's response bytes) → two eclipse-serve backends with
// the default L2. After warm-up the codec does nothing: the time is L1 hits,
// L1 miss → proxy → L2 hit, HTTP, and L1 evict+fill beside the hits.
type gatewayWorkload struct {
	seed int64
	sz   sizes

	clips []*clip
	reqs  []request // one block's op list, drawn Zipf over the catalog

	srvs    []*serve.Server
	backs   []*httptest.Server
	gw      *cluster.Gateway
	front   *httptest.Server
	conns   []*httpConn
	rec     respRecorder
	catalog int64 // response bytes of every object

	// The ladder follows the proxied path, so it uses a gateway without L1.
	plain      *cluster.Gateway
	plainFront *httptest.Server
}

func (w *gatewayWorkload) setup(step stepFn) error {
	sp := clipSpec{w.sz.gwW, w.sz.gwH, w.sz.gwFrames, 12, 3}
	var err error
	if w.clips, err = makeClips(step, w.sz.gwClips, 16, func(i int) (*clip, error) {
		return makeClip(sp, clipSeed(w.seed, i), true)
	}); err != nil {
		return err
	}
	for _, c := range w.clips {
		w.catalog += int64(len(c.raw) + len(c.xcode))
	}
	rng := rand.New(rand.NewSource(w.seed))
	zipf := rand.NewZipf(rng, gwZipfS, 1, uint64(len(w.clips)-1))
	for i := 0; i < w.sz.gwBlockReqs; i++ {
		c := w.clips[zipf.Uint64()]
		if rng.Float64() < gwDecodes {
			w.reqs = append(w.reqs, decodeReq(c, ""))
		} else {
			w.reqs = append(w.reqs, xcodeReq(c, ""))
		}
	}
	if err := step(func() (err error) {
		var addrs []string
		for i := 0; i < gwBackends; i++ {
			srv := serve.New(serve.Config{})
			ts := httptest.NewServer(srv.Handler())
			w.srvs, w.backs = append(w.srvs, srv), append(w.backs, ts)
			addrs = append(addrs, ts.Listener.Addr().String())
		}
		w.gw, w.front, err = startGateway(cluster.Config{Backends: addrs, L1Bytes: w.catalog / 4})
		for i := 0; i < gwClients; i++ {
			w.conns = append(w.conns, newHTTPConn())
		}
		return err
	}); err != nil {
		return err
	}
	// Warm-up by count: every object once, then the tail of the block's op
	// list, so the L1 starts each measured block as the last one left it.
	var warm []request
	for _, c := range w.clips {
		warm = append(warm, decodeReq(c, ""), xcodeReq(c, ""))
	}
	warm = append(warm, w.reqs[len(w.reqs)-len(w.reqs)/4:]...)
	const chunk = 256
	for lo := 0; lo < len(warm); lo += chunk {
		part := warm[lo:min(lo+chunk, len(warm))]
		if err := step(func() error {
			res := closedLoop(gwClients, len(part), func(client, i int) bool {
				ok, _, err := w.conns[client].post(w.front.URL, part[i])
				return ok && err == nil
			})
			for i, s := range res.samples {
				if !s.ok {
					return fmt.Errorf("gateway_zipf warm-up %d: response differs from the offline codec", lo+i)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// startGateway boots a gateway with shipping defaults over cfg and waits
// until every backend is routable.
func startGateway(cfg cluster.Config) (*cluster.Gateway, *httptest.Server, error) {
	gw, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	gw.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx, len(cfg.Backends)); err != nil {
		gw.Stop()
		return nil, nil, err
	}
	return gw, httptest.NewServer(gw.Handler()), nil
}

func (w *gatewayWorkload) runBlock() blockResult {
	return closedLoop(gwClients, len(w.reqs), func(client, i int) bool {
		ok, _, err := w.conns[client].post(w.front.URL, w.reqs[i])
		return ok && err == nil
	})
}

func (w *gatewayWorkload) corrupt() { w.reqs[0].want = flipByte(w.reqs[0].want) }

func (w *gatewayWorkload) ladder() ([]rung, int, error) {
	if w.plain == nil {
		var addrs []string
		for _, ts := range w.backs {
			addrs = append(addrs, ts.Listener.Addr().String())
		}
		var err error
		if w.plain, w.plainFront, err = startGateway(cluster.Config{Backends: addrs}); err != nil {
			return nil, 0, err
		}
	}
	at := func(op int) request { return w.reqs[op%len(w.reqs)] }
	// Which backend the ring routes each op to, learnt from one untimed
	// pass, so the lower rungs can go to the backend whose L2 holds the object.
	n := w.sz.ladderOps["gateway_zipf"]
	owner := make([]int, n)
	for op := range owner {
		ok, hdr, err := w.conns[0].post(w.plainFront.URL, at(op))
		if err := verified(ok, err); err != nil {
			return nil, 0, err
		}
		for i, ts := range w.backs {
			if hdr.Get(cluster.BackendHeader) == ts.Listener.Addr().String() {
				owner[op] = i
			}
		}
	}
	return []rung{
		{"client.http", func(op int) error {
			ok, _, err := w.conns[0].post(w.plainFront.URL, at(op))
			return verified(ok, err)
		}},
		{"cluster.handler", func(op int) error {
			ok, err := call(w.plain.Handler(), at(op), &w.rec)
			return verified(ok, err)
		}},
		{"serve.http", func(op int) error {
			ok, _, err := w.conns[0].post(w.backs[owner[op]].URL, at(op))
			return verified(ok, err)
		}},
		{"serve.handler", func(op int) error {
			ok, err := call(w.srvs[owner[op]].Handler(), at(op), &w.rec)
			return verified(ok, err)
		}},
	}, n, nil
}

// layerMetrics replays one block's op list from a single client and sorts
// each response by the X-Cache and X-Backend headers the gateway set.
func (w *gatewayWorkload) layerMetrics(lad *ladderResult, out metricSet) error {
	out.put("cluster.handler_ms", lad.p50Ms["cluster.handler"], "ms")
	out.put("cluster.proxy_self_ms", lad.selfMs["cluster.handler"], "ms")

	met := w.gw.Metrics()
	backendReqs := func() (n uint64) {
		for _, b := range w.gw.Backends() {
			n += b.Snapshot().Requests
		}
		return n
	}
	hedges := func() (n uint64) {
		for i := range met.Hedges {
			n += met.Hedges[i].Load()
		}
		return n
	}
	hits0, fills0, evict0, reval0 := met.L1Hits.Load(), met.L1Fills.Load(), met.L1Evictions.Load(), met.L1Revalidations.Load()
	hedge0, retry0, back0 := hedges(), met.Retries.Load(), backendReqs()

	var hit, proxied []float64
	lastBackend := map[string]string{}
	same, moved := uint64(0), uint64(0)
	for _, rq := range w.reqs {
		t0 := time.Now()
		ok, hdr, err := w.conns[0].post(w.front.URL, rq)
		d := ms(time.Since(t0))
		if err := verified(ok, err); err != nil {
			return err
		}
		if hdr.Get(cluster.CacheHeader) == cluster.XCacheL1Hit {
			hit = append(hit, d)
			continue
		}
		proxied = append(proxied, d)
		key, b := fmt.Sprintf("%s %p", rq.path, rq.clip), hdr.Get(cluster.BackendHeader)
		if prev, seen := lastBackend[key]; seen && prev == b {
			same++
		} else if seen {
			moved++
		}
		lastBackend[key] = b
	}
	n := float64(len(w.reqs))
	out.put("cluster.l1_hit_ms", median(hit), "ms")
	out.put("cluster.proxied_ms", median(proxied), "ms")
	out.put("cluster.l1_hit_ratio", float64(met.L1Hits.Load()-hits0)/n, "ratio")
	out.put("cluster.l1_fills", float64(met.L1Fills.Load()-fills0), "count")
	out.put("cluster.l1_evictions", float64(met.L1Evictions.Load()-evict0), "count")
	out.put("cluster.revalidations", float64(met.L1Revalidations.Load()-reval0), "count")
	out.put("cluster.hedges", float64(hedges()-hedge0), "count")
	out.put("cluster.retries", float64(met.Retries.Load()-retry0), "count")
	out.put("cluster.backend_reqs_per_op", float64(backendReqs()-back0)/n, "ratio")
	out.put("cluster.affinity_ratio", ratio(same, same+moved), "ratio")
	return nil
}

func (w *gatewayWorkload) close() {
	for _, c := range w.conns {
		c.close()
	}
	for _, f := range []*httptest.Server{w.front, w.plainFront} {
		if f != nil {
			f.Close()
		}
	}
	for _, g := range []*cluster.Gateway{w.gw, w.plain} {
		if g != nil {
			g.Stop()
		}
	}
	for _, ts := range w.backs {
		ts.Close()
	}
	for _, srv := range w.srvs {
		srv.Shutdown(context.Background())
	}
}
