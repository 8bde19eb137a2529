package serve_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/serve"
	"dcbench/internal/sweep"
)

// BenchmarkColdSweep is the service's dominant cost: one full-registry
// characterization sweep with the memo bypassed, at the test trace length.
func BenchmarkColdSweep(b *testing.B) {
	o := testOptions()
	e := sweep.NewEngine()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), core.RegistryJobs(), o.CoreConfig(),
			o.Warmup+o.Instrs, sweep.RunOptions{NoMemo: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRead is the steady-state serving cost of a retained body —
// figure 3 as JSON, as CSV, and revalidated — over one keep-alive
// connection: every body is drained, so no iteration re-dials.
func BenchmarkWarmRead(b *testing.B) {
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fetch := func(b *testing.B, path string, hdr http.Header, want int) string {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			b.Fatal(err)
		}
		if hdr != nil {
			req.Header = hdr
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
		return resp.Header.Get("Etag")
	}
	tag := fetch(b, "/v1/figures/3", nil, http.StatusOK) // the one cold render
	fetch(b, "/v1/figures/3?format=csv", nil, http.StatusOK)
	for _, c := range []struct {
		name, path string
		hdr        http.Header
		status     int
	}{
		{"json200", "/v1/figures/3", nil, http.StatusOK},
		{"csv200", "/v1/figures/3?format=csv", nil, http.StatusOK},
		{"304", "/v1/figures/3", http.Header{"If-None-Match": {tag}}, http.StatusNotModified},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fetch(b, c.path, c.hdr, c.status)
			}
		})
	}
}

// BenchmarkWarmHandler is BenchmarkWarmRead without the client and the
// socket: the server's own cost of a warm read, through ServeHTTP with a
// writer that drops the body. -benchmem reports the server's allocations.
func BenchmarkWarmHandler(b *testing.B) {
	h, cases := warmHandler(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveDiscarded(b, h, w, c)
			}
		})
	}
}
