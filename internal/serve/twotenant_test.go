package serve

// End-to-end coverage for a weighted two-tenant mix: decode and
// transcode requests from a weight-4 and a weight-1 tenant run
// concurrently under one scheduler and one shared frame pool, and every
// response must be bit-identical to the offline reference.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eclipse/internal/media"
)

// TestHTTPTwoTenantMix runs decodes and transcodes from two tenants of
// different weights concurrently against one server under a 1 ms slice,
// so jobs of both tenants are preempted and interleaved, and requires
// every response to be bit-identical to the offline reference.
func TestHTTPTwoTenantMix(t *testing.T) {
	srv := New(Config{
		Workers:   2,
		BaseSlice: time.Millisecond,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 4, QueueCap: 16},
			{Name: "bronze", Weight: 1, QueueCap: 16},
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	stream, _, _ := testStream(t, 96, 80, 9, func(c *media.CodecConfig) {
		c.GOPM = 3
		c.HalfPel = true
	})

	// Offline references.
	ref, err := media.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	var wantRaw []byte
	for _, f := range ref.DisplayFrames() {
		wantRaw = append(wantRaw, f.Pix...)
	}
	xcfg := TranscodeConfig(ref.Seq, 9)
	wantXcode, _, _, err := media.Encode(xcfg, ref.DisplayFrames())
	if err != nil {
		t.Fatal(err)
	}

	const perTenant = 6
	var wg sync.WaitGroup
	errs := make(chan error, 4*perTenant)
	hit := func(tenant, url string, want []byte) {
		defer wg.Done()
		resp := post(t, url, tenant, stream, nil)
		body := readAll(t, resp)
		if resp.StatusCode != 200 {
			errs <- fmt.Errorf("%s %s: status %d: %s", tenant, url, resp.StatusCode, body)
			return
		}
		if !bytes.Equal(body, want) {
			errs <- fmt.Errorf("%s %s: body differs from reference (%d vs %d bytes)", tenant, url, len(body), len(want))
		}
	}
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			wg.Add(2)
			go hit(tenant, ts.URL+"/v1/decode", wantRaw)
			go hit(tenant, ts.URL+"/v1/transcode?q=9", wantXcode)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
