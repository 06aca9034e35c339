package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"eclipse/internal/media"
	"eclipse/internal/serve"
)

// TestRequestParamsAgree sends the same raw X-Timeout-Ms and transcode q
// values to a backend directly and through the gateway: both tiers parse
// them with the same internal/serve helpers, so they must accept and
// reject alike. Every request carries If-None-Match with the content
// address the backend would cache a valid request under, so each tier
// answers 304 right after parsing — no job runs, no timing enters.
func TestRequestParamsAgree(t *testing.T) {
	stream, _, _, err := media.Encode(media.DefaultCodec(32, 32), media.NewSource(media.DefaultSource(32, 32)).Frames(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 1})
	backend := httptest.NewServer(srv.Handler())
	g := newTestGateway(t, Config{HedgeDisabled: true, L1Bytes: 1 << 20}, backend.Listener.Addr().String())
	forceUp(g)
	gateway := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		gateway.Close()
		srv.Shutdown(context.Background())
		backend.Close()
	})

	decodeTag, xcodeTag := serve.DecodeKey(stream).ETag(), serve.TranscodeKey(9, stream).ETag()
	var valid uint64
	for _, tc := range []struct {
		name, path, timeout, inm string
		want                     int
	}{
		{"timeout=soon", "/v1/decode", "soon", decodeTag, http.StatusBadRequest},
		{"timeout=0", "/v1/decode", "0", decodeTag, http.StatusBadRequest},
		{"timeout=-5", "/v1/decode", "-5", decodeTag, http.StatusBadRequest},
		{"timeout=1", "/v1/decode", "1", decodeTag, http.StatusNotModified},
		{"timeout=50", "/v1/decode", "50", decodeTag, http.StatusNotModified},
		{"q=", "/v1/transcode?q=", "", xcodeTag, http.StatusBadRequest},
		{"q=x", "/v1/transcode?q=x", "", xcodeTag, http.StatusBadRequest},
		{"q=9", "/v1/transcode?q=9", "", xcodeTag, http.StatusNotModified},
	} {
		var codes [2]int
		for i, base := range []string{backend.URL, gateway.URL} {
			req, err := http.NewRequest(http.MethodPost, base+tc.path, bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("If-None-Match", tc.inm)
			if tc.timeout != "" {
				req.Header.Set("X-Timeout-Ms", tc.timeout)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, resp)
			codes[i] = resp.StatusCode
		}
		if codes[0] != codes[1] || codes[0] != tc.want {
			t.Errorf("%s: backend %d, gateway %d, want %d from both", tc.name, codes[0], codes[1], tc.want)
		}
		if tc.want == http.StatusNotModified {
			valid++
		}
	}
	// Only the direct requests reached the backend: the gateway answered
	// every valid one itself, so its key matched the backend's.
	if got := srv.Cache().Snapshot().NotModified; got != valid {
		t.Fatalf("backend answered %d revalidations, want %d (the direct requests only)", got, valid)
	}
}
