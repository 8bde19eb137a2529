package serve_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// maxRetained is the closed key set's size: /v1/workloads and table 1 in
// both formats, 26 counter files ×2, 12 figures ×2, tables 2–3 JSON only.
const maxRetained = 82

// readURL is one valid read request and the flight key it must map to.
type readURL struct{ path, key string }

// readURLs lists every valid read URL, each format once.
func readURLs() []readURL {
	var out []readURL
	both := func(path, key string) {
		out = append(out, readURL{path, key + "?json"}, readURL{path + "?format=csv", key + "?csv"})
	}
	both("/v1/workloads", "workloads")
	for _, w := range core.Registry() {
		both("/v1/workloads/"+w.Name+"/counters", "workloads/"+w.Name+"/counters")
	}
	for n := 1; n <= 12; n++ {
		both(fmt.Sprintf("/v1/figures/%d", n), fmt.Sprintf("figures/%d", n))
	}
	both("/v1/tables/1", "tables/1")
	out = append(out, readURL{"/v1/tables/2", "tables/2?json"}, readURL{"/v1/tables/3", "tables/3?json"})
	return out
}

// oldETag is the validator formula etag replaced (one fmt pass per
// request), kept as its oracle.
func oldETag(o report.Options, key string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%g|%d|%d|%d|%s",
		o.Seed, o.Scale, o.Instrs, o.Warmup,
		o.CoreConfig().Fingerprint(), key)
	return fmt.Sprintf(`"%016x"`, h.Sum64())
}

// countingStore is an in-memory engine and cluster backend that counts
// every call made to it.
type countingStore struct {
	mu       sync.Mutex
	counters map[sweep.Key]*uarch.Counters
	stats    map[workloads.StatsKey]*workloads.Stats
	calls    int
}

func newCountingStore() *countingStore {
	return &countingStore{counters: map[sweep.Key]*uarch.Counters{}, stats: map[workloads.StatsKey]*workloads.Stats{}}
}

func (b *countingStore) Load(_ context.Context, k sweep.Key) (*uarch.Counters, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	c, ok := b.counters[k]
	return c, ok
}

func (b *countingStore) Store(_ context.Context, k sweep.Key, c *uarch.Counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	b.counters[k] = c
}

func (b *countingStore) LoadStats(_ context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	st, ok := b.stats[k]
	return st, ok
}

func (b *countingStore) StoreStats(_ context.Context, k workloads.StatsKey, st *workloads.Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	b.stats[k] = st
}

func (b *countingStore) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

// reply is one response's status, validator and bytes.
type reply struct {
	status int
	etag   string
	body   string
}

func fetch(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) reply {
	t.Helper()
	resp, body := get(t, ts, path, hdr)
	return reply{resp.StatusCode, resp.Header.Get("Etag"), string(body)}
}

// TestWarmReadsDoZeroWork: once every read URL has been served, a second
// pass renders nothing — with the engine and cluster memos dropped, a
// re-render would have to reload through the counting backend — and
// returns the first pass's bytes and validators, each validator equal to
// the old per-request formula.
func TestWarmReadsDoZeroWork(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization + cluster sweep")
	}
	opts := testOptions()
	backend := newCountingStore()
	srv := serve.New(serve.Config{Options: opts, Backend: backend, Cluster: backend, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	urls := readURLs()
	first := make([]reply, len(urls))
	for i, u := range urls {
		first[i] = fetch(t, ts, u.path, nil)
		if first[i].status != http.StatusOK {
			t.Fatalf("%s: status %d", u.path, first[i].status)
		}
		if want := oldETag(opts, u.key); first[i].etag != want {
			t.Errorf("%s: Etag %s, want %s (old formula over %q)", u.path, first[i].etag, want, u.key)
		}
	}
	if n := srv.FlightLenForTest(); n != len(urls) {
		t.Fatalf("retained %d bodies after one pass over %d URLs", n, len(urls))
	}

	srv.DropComputeCachesForTest(backend, backend)
	before := backend.callCount()
	for i, u := range urls {
		if got := fetch(t, ts, u.path, nil); got != first[i] {
			t.Errorf("%s: second pass %d %s (%d bytes), first %d %s (%d bytes)", u.path,
				got.status, got.etag, len(got.body), first[i].status, first[i].etag, len(first[i].body))
		}
		got := fetch(t, ts, u.path, map[string]string{"If-None-Match": first[i].etag})
		if got.status != http.StatusNotModified || got.etag != first[i].etag {
			t.Errorf("%s: revalidation %d %s, want 304 %s", u.path, got.status, got.etag, first[i].etag)
		}
	}
	if calls := backend.callCount() - before; calls != 0 {
		t.Fatalf("warm pass made %d backend calls, want 0: something re-rendered", calls)
	}
}

// TestRetainedSetIsBounded: a barrage of URL variants — malformed and
// out-of-range numbers, unknown and differently-cased names, odd formats
// and Accept headers, CSV for the prose tables — adds no retained body
// beyond the closed key set, and every 200 among them is byte-for-byte
// one of the canonical bodies.
func TestRetainedSetIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization + cluster sweep")
	}
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	canonical := map[string]string{} // Etag → body
	for _, u := range readURLs() {
		r := fetch(t, ts, u.path, nil)
		if r.status != http.StatusOK {
			t.Fatalf("%s: status %d", u.path, r.status)
		}
		canonical[r.etag] = r.body
	}
	if n := srv.FlightLenForTest(); n != len(canonical) || n > maxRetained {
		t.Fatalf("retained %d bodies for %d distinct URLs, bound %d", n, len(canonical), maxRetained)
	}

	fig3 := fetch(t, ts, "/v1/figures/3", nil)
	if r := fetch(t, ts, "/v1/figures/03", nil); r != fig3 {
		t.Fatalf("/v1/figures/03 = %d %s, want figures/3's bytes and Etag %s", r.status, r.etag, fig3.etag)
	}

	var paths []string
	for _, n := range []string{"0", "13", "03", "+3", "3.0", "x", "-1", "99999999999999999999"} {
		paths = append(paths, "/v1/figures/"+n)
	}
	for _, n := range []string{"0", "4", "01", "1.0", "2", "3"} {
		paths = append(paths, "/v1/tables/"+n)
	}
	for _, name := range []string{"Sort", "sort", "SORT", "Sor%74", "NoSuch", "Sort%20", "grep"} {
		paths = append(paths, "/v1/workloads/"+name+"/counters")
	}
	paths = append(paths, "/v1/workloads", "/v1/workloads/")
	queries := []string{"", "?format=csv", "?format=xml", "?format=CSV", "?format=", "?format=json&format=csv", "?x=1"}
	accepts := []string{"", "text/csv", "text/csv; q=0.1", "application/json, text/csv", "*/*", "TEXT/CSV", "text/html"}
	sent := 0
	for _, p := range paths {
		for _, q := range queries {
			for _, a := range accepts {
				var hdr map[string]string
				if a != "" {
					hdr = map[string]string{"Accept": a}
				}
				r := fetch(t, ts, p+q, hdr)
				sent++
				switch r.status {
				case http.StatusOK:
					if body, ok := canonical[r.etag]; !ok || body != r.body {
						t.Errorf("%s (Accept %q): 200 with Etag %s is not a canonical body", p+q, a, r.etag)
					}
				case http.StatusBadRequest, http.StatusNotFound, http.StatusNotAcceptable,
					http.StatusMovedPermanently:
				default:
					t.Errorf("%s (Accept %q): status %d", p+q, a, r.status)
				}
			}
		}
	}
	if n := srv.FlightLenForTest(); n != len(canonical) {
		t.Fatalf("%d variant requests grew the retained set to %d bodies, want %d", sent, n, len(canonical))
	}
}

// panicOnce fails its first Load (the engine memo turns the panic into an
// error), then behaves as an empty backend.
type panicOnce struct{ fired sync.Once }

func (b *panicOnce) Load(context.Context, sweep.Key) (*uarch.Counters, bool) {
	b.fired.Do(func() { panic("injected backend failure") })
	return nil, false
}

func (b *panicOnce) Store(context.Context, sweep.Key, *uarch.Counters) {}

// TestFailedRenderIsNotRetained: a render whose backend fails answers
// 500 and leaves nothing behind; the next request renders afresh and gets
// the bytes a healthy server serves.
func TestFailedRenderIsNotRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	const path = "/v1/workloads/Sort/counters"
	golden := func() reply {
		srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		return fetch(t, ts, path, nil)
	}()

	srv := serve.New(serve.Config{Options: testOptions(), Backend: &panicOnce{}, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if r := fetch(t, ts, path, nil); r.status != http.StatusInternalServerError || r.etag != "" {
		t.Fatalf("failed render = %d (Etag %q), want a 500 without validators", r.status, r.etag)
	}
	if n := srv.FlightLenForTest(); n != 0 {
		t.Fatalf("a failed render left %d retained bodies", n)
	}
	if r := fetch(t, ts, path, nil); r != golden {
		t.Fatalf("retry = %d %s (%d bytes), want the golden %d %s (%d bytes)",
			r.status, r.etag, len(r.body), golden.status, golden.etag, len(golden.body))
	}
	if n := srv.FlightLenForTest(); n != 1 {
		t.Fatalf("retained %d bodies after one good render, want 1", n)
	}
}

// TestETagMatchesFormula: the precomputed validator equals the old
// per-request formula for every key under assorted run parameters.
func TestETagMatchesFormula(t *testing.T) {
	optsSet := []report.Options{testOptions(), report.DefaultOptions()}
	for _, mod := range []func(*report.Options){
		func(o *report.Options) { o.Seed = math.MaxUint64 },
		func(o *report.Options) { o.Scale = 1e-7 },
		func(o *report.Options) { o.Scale = 3 },
		func(o *report.Options) { o.Instrs, o.Warmup = 1, 0 },
	} {
		o := testOptions()
		mod(&o)
		optsSet = append(optsSet, o)
	}
	keys := []string{"", "workloads?json", "figures/3?csv", "tables/2?json", "ünïcode/\x00/\xff"}
	for _, u := range readURLs() {
		keys = append(keys, u.key)
	}
	for _, o := range optsSet {
		srv := serve.New(serve.Config{Options: o, Logger: quietLog})
		for _, k := range keys {
			if got, want := srv.ETagForTest(k), oldETag(o, k); got != want {
				t.Errorf("seed=%d scale=%g instrs=%d warmup=%d key %q: etag %s, want %s",
					o.Seed, o.Scale, o.Instrs, o.Warmup, k, got, want)
			}
		}
		srv.Close()
	}
}

// discardWriter is a ResponseWriter that keeps the headers and drops the
// body, so what a request costs through it is the server's own work.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// warmCase is one warm read of figure 3.
type warmCase struct {
	name   string
	req    *http.Request
	status int
}

// warmHandler returns the handler of a server with figure 3 rendered in
// both formats, logging at Info to nowhere, and the three warm reads of
// it: JSON, CSV and a revalidation.
func warmHandler(tb testing.TB) (http.Handler, []warmCase) {
	tb.Helper()
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	cases := []warmCase{
		{"json200", httptest.NewRequest("GET", "/v1/figures/3", nil), http.StatusOK},
		{"csv200", httptest.NewRequest("GET", "/v1/figures/3?format=csv", nil), http.StatusOK},
		{"304", httptest.NewRequest("GET", "/v1/figures/3", nil), http.StatusNotModified},
	}
	w := &discardWriter{h: http.Header{}}
	serveDiscarded(tb, h, w, cases[1])
	serveDiscarded(tb, h, w, cases[0])
	cases[2].req.Header.Set("If-None-Match", w.h.Get("Etag"))
	return h, cases
}

// serveDiscarded serves c once through w, reset first.
func serveDiscarded(tb testing.TB, h http.Handler, w *discardWriter, c warmCase) {
	clear(w.h)
	w.status = http.StatusOK
	h.ServeHTTP(w, c.req)
	if w.status != c.status {
		tb.Fatalf("%s: status %d, want %d", c.name, w.status, c.status)
	}
}

// TestWarmReadAllocationBudget: a warm read of a retained body — JSON,
// CSV or a 304 — allocates little beyond its trace and its request
// context: no per-request ETag, key, closure, header slice, query map or
// log line.
func TestWarmReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	h, cases := warmHandler(t)
	budget := map[string]float64{"json200": 8, "csv200": 8, "304": 8}
	w := &discardWriter{h: http.Header{}}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() { serveDiscarded(t, h, w, c) })
		t.Logf("%s: %.0f allocations per request", c.name, got)
		if got > budget[c.name] {
			t.Errorf("%s: %.0f allocations per request, budget %.0f", c.name, got, budget[c.name])
		}
	}
}
