package serve

// End-to-end coverage for the per-tenant decode width: there is one
// decode body (decodeFrames), and a tenant configured with
// DecodeWorkers > 1 runs its decode and transcode requests with that
// many reconstruction workers beside the entropy parse while a
// DecodeWorkers = 1 tenant runs the same decoder serially — and both
// must produce responses bit-identical to the reference decoder,
// concurrently, under one scheduler and one shared frame pool.

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

// TestDecodeWorkersPlumbing checks the config plumbing: per-tenant
// declarations override the server default, undeclared tenants inherit
// it, and the value lands in the tenant snapshot.
func TestDecodeWorkersPlumbing(t *testing.T) {
	met := NewMetrics()
	s := NewScheduler(Config{
		Workers:       1,
		DecodeWorkers: 3,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 4, DecodeWorkers: 4},
			{Name: "bronze", Weight: 1, DecodeWorkers: 1},
			{Name: "plain", Weight: 1}, // inherits the config default
		},
	}, met)
	defer s.Drain(context.Background())

	cases := map[string]int{
		"gold":    4,
		"bronze":  1,
		"plain":   3,
		"unknown": 3, // not registered: config default
	}
	for name, want := range cases {
		if got := s.DecodeWorkersFor(name); got != want {
			t.Errorf("DecodeWorkersFor(%q) = %d, want %d", name, got, want)
		}
	}
	for _, snap := range s.SnapshotTenants() {
		if want := cases[snap.Name]; snap.DecodeWorkers != want {
			t.Errorf("snapshot %q decode_workers = %d, want %d", snap.Name, snap.DecodeWorkers, want)
		}
	}
}

// TestHTTPTwoTenantDecodeWorkers runs two tenants with different decode
// widths concurrently against one server and requires every response —
// decode and transcode, at either width — to be bit-identical to the
// offline reference.
func TestHTTPTwoTenantDecodeWorkers(t *testing.T) {
	srv := New(Config{
		Workers:   2,
		BaseSlice: time.Millisecond,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 4, QueueCap: 16, DecodeWorkers: 4},
			{Name: "bronze", Weight: 1, QueueCap: 16, DecodeWorkers: 1},
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
