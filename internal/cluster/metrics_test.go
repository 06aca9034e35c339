package cluster

import (
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// checkExposition parses Prometheus text-format output strictly enough
// to catch what a hand-written renderer gets wrong, and returns the
// families in order as "name type". Every sample must sit under the
// HELP+TYPE pair of its own family, no family may be declared twice,
// counters end in _total, and each histogram series has cumulative
// buckets whose le="+Inf" equals its _count.
func checkExposition(t *testing.T, who, text string) []string {
	t.Helper()
	var (
		families []string
		seen     = map[string]bool{}
		name     string // current family
		typ      string
		buckets  = map[string]float64{} // series labels (minus le) → last cumulative count
		inf      = map[string]float64{} // series labels → +Inf bucket
	)
	closeFamily := func() {
		for series, n := range inf {
			if buckets[series] > n {
				t.Errorf("%s: %s{%s}: bucket count %v exceeds +Inf %v", who, name, series, buckets[series], n)
			}
		}
		buckets, inf = map[string]float64{}, map[string]float64{}
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			closeFamily()
			name, _, _ = strings.Cut(help, " ")
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("%s: line %d: HELP %s not followed by its TYPE", who, i+1, name)
			}
			typ = strings.TrimPrefix(lines[i+1], "# TYPE "+name+" ")
			i++
			if seen[name] {
				t.Errorf("%s: family %s declared twice", who, name)
			}
			seen[name] = true
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counter %s does not end in _total", who, name)
			}
			families = append(families, name+" "+typ)
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			t.Fatalf("%s: line %d: stray %q", who, i+1, line)
		}
		// sample: name[{labels}] value
		head, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: line %d: no value in %q", who, i+1, line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: line %d: bad value %q", who, i+1, val)
		}
		sname, labels, _ := strings.Cut(strings.TrimSuffix(head, "}"), "{")
		if typ != "histogram" {
			if sname != name {
				t.Fatalf("%s: line %d: sample %s under family %s", who, i+1, sname, name)
			}
			continue
		}
		suffix, ok := strings.CutPrefix(sname, name)
		if !ok {
			t.Fatalf("%s: line %d: sample %s under histogram %s", who, i+1, sname, name)
		}
		switch suffix {
		case "_bucket":
			j := strings.LastIndex(labels, `le="`)
			if j < 0 {
				t.Fatalf("%s: line %d: bucket without le", who, i+1)
			}
			series, le := strings.TrimSuffix(labels[:j], ","), strings.TrimSuffix(labels[j+4:], `"`)
			if le == "+Inf" {
				inf[series] = v
			} else if v < buckets[series] {
				t.Errorf("%s: line %d: bucket le=%s count %v below the previous bucket's %v", who, i+1, le, v, buckets[series])
			} else {
				buckets[series] = v
			}
		case "_count":
			if got, ok := inf[labels]; !ok || got != v {
				t.Errorf("%s: line %d: %s_count %v but le=\"+Inf\" %v", who, i+1, name, v, got)
			}
		case "_sum":
		default:
			t.Fatalf("%s: line %d: sample %s under histogram %s", who, i+1, sname, name)
		}
	}
	closeFamily()
	return families
}

// The pinned exposition order: a renamed, retyped, dropped or reordered
// family is an operator-visible change and must be made on purpose.
var (
	serveFamilies = prefixed("eclipse_serve_",
		"uptime_seconds gauge", "requests_total counter", "errors_total counter",
		"admission_rejects_total counter", "preemptions_total counter",
		"bytes_in_total counter", "bytes_out_total counter", "frame_pool_retained gauge",
		"transcode_inflight_frames gauge",
		"transcode_segments_jobs_total counter", "transcode_segments_total counter",
		"transcode_segments_stitch_bytes_total counter", "transcode_segments_skew_seconds gauge",
		"queue_depth gauge", "tenant_admitted gauge", "tenant_completed_total counter",
		"tenant_rejects_total counter", "tenant_preemptions_total counter",
		"tenant_service_seconds_total counter", "latency_seconds histogram",
		"cache_budget_bytes gauge", "cache_resident_bytes gauge", "cache_entries gauge",
		"cache_fills_total counter", "cache_promotions_total counter",
		"cache_not_modified_total counter", "cache_too_large_total counter",
		"cache_hits_total counter", "cache_misses_total counter", "cache_collapsed_total counter",
		"cache_evictions_total counter", "cache_tenant_resident_bytes gauge",
		"cache_hit_latency_seconds histogram", "cache_miss_latency_seconds histogram")
	gatewayFamilies = prefixed("eclipse_gateway_",
		"uptime_seconds gauge", "requests_total counter", "errors_total counter",
		"hedges_total counter", "hedge_wins_total counter", "retries_total counter",
		"ring_churn_total counter", "no_backend_total counter", "mid_stream_errors_total counter",
		"pushback_passthrough_total counter", "stream_through_total counter",
		"stream_truncated_total counter", "bytes_in_total counter", "bytes_out_total counter",
		"l1_hits_total counter", "l1_misses_total counter", "l1_stale_total counter",
		"l1_revalidations_total counter", "l1_client_not_modified_total counter",
		"l1_collapsed_total counter", "l1_fills_total counter", "l1_evictions_total counter",
		"l1_too_large_total counter", "l1_resident_bytes gauge", "backend_state gauge",
		"backend_requests_total counter", "backend_errors_total counter",
		"backend_hedges_total counter", "backend_ejections_total counter",
		"backend_drains_total counter", "backend_probe_failures_total counter",
		"latency_seconds histogram", "l1_hit_latency_seconds histogram")
)

func prefixed(prefix string, names ...string) []string {
	for i := range names {
		names[i] = prefix + names[i]
	}
	return names
}

// TestMetricsExposition scripts miss → hit → 304 against a backend and
// against the gateway, then holds both tiers' /metrics to the same
// format rules and to their pinned family lists.
func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster E2E in -short mode")
	}
	items := buildClusterCatalog(t, 2)
	c := newTestCluster(t, func(cfg *Config) { cfg.L1Bytes = 64 << 20 })

	script := func(url string, stream []byte, wantXCache ...string) {
		t.Helper()
		etag := ""
		for i, want := range wantXCache {
			var hdr map[string]string
			if i == len(wantXCache)-1 {
				hdr = map[string]string{"If-None-Match": etag}
			}
			resp, _ := l1Post(t, url, "/v1/decode", stream, hdr)
			if got := resp.Header.Get(CacheHeader); got != want {
				t.Fatalf("%s request %d: X-Cache %q, want %q", url, i, got, want)
			}
			etag = resp.Header.Get("ETag")
		}
	}
	scrape := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// The backend is scraped before the gateway script runs: the ring
	// may route the gateway's miss to this same backend.
	script(c.ts[0].URL, items[0].stream, "miss", "hit", "revalidated")
	serveText := scrape(c.ts[0].URL)
	script(c.gwTS.URL, items[1].stream, "miss", XCacheL1Hit, XCacheL1Hit)
	for _, tier := range []struct {
		who, text string
		families  []string
		samples   []string // what the script must have left behind
	}{
		{"serve", serveText, serveFamilies, []string{
			`eclipse_serve_cache_hits_total{tenant="default"} 1`,
			`eclipse_serve_cache_misses_total{tenant="default"} 1`,
			"eclipse_serve_cache_not_modified_total 1",
			"eclipse_serve_cache_fills_total 1",
			"eclipse_serve_cache_hit_latency_seconds_count 1",
		}},
		{"gateway", scrape(c.gwTS.URL), gatewayFamilies, []string{
			"eclipse_gateway_l1_hits_total 1",
			"eclipse_gateway_l1_misses_total 1",
			"eclipse_gateway_l1_client_not_modified_total 1",
			"eclipse_gateway_l1_fills_total 1",
			`eclipse_gateway_requests_total{kind="decode"} 3`,
			"eclipse_gateway_l1_hit_latency_seconds_count 1",
		}},
	} {
		got := checkExposition(t, tier.who, tier.text)
		if !slices.Equal(got, tier.families) {
			t.Errorf("%s families:\n got %q\nwant %q", tier.who, got, tier.families)
		}
		for _, s := range tier.samples {
			if !strings.Contains(tier.text, s+"\n") {
				t.Errorf("%s: /metrics lacks %q after miss → hit → 304", tier.who, s)
			}
		}
	}
}
