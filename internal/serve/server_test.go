package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// quietLog keeps request logs out of test output.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// testOptions keeps sweeps and cluster runs small enough for CI while
// staying deterministic; the scale is distinct from other packages' test
// scales only for clarity, not correctness.
func testOptions() report.Options {
	o := report.DefaultOptions()
	o.Instrs = 30_000
	o.Warmup = 10_000
	o.Scale = 0.004
	return o
}

// countingBackend wraps a MemoBackend and counts traffic; an optional gate
// blocks every Load until released, letting tests hold a render in flight.
type countingBackend struct {
	inner sweep.MemoBackend
	gate  chan struct{} // nil = never block
	mu    sync.Mutex
	hits  int
	sims  int // Store calls, i.e. real simulations
}

func (b *countingBackend) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	if b.gate != nil {
		<-b.gate
	}
	c, ok := b.inner.Load(ctx, k)
	if ok {
		b.mu.Lock()
		b.hits++
		b.mu.Unlock()
	}
	return c, ok
}

func (b *countingBackend) Store(ctx context.Context, k sweep.Key, c *uarch.Counters) {
	b.mu.Lock()
	b.sims++
	b.mu.Unlock()
	b.inner.Store(ctx, k, c)
}

func (b *countingBackend) counts() (hits, sims int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.sims
}

// memoryBackend is a plain map MemoBackend for tests that don't need disk.
type memoryBackend struct {
	mu sync.Mutex
	m  map[sweep.Key]*uarch.Counters
}

func newMemoryBackend() *memoryBackend { return &memoryBackend{m: map[sweep.Key]*uarch.Counters{}} }

func (b *memoryBackend) Load(_ context.Context, k sweep.Key) (*uarch.Counters, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.m[k]
	return c, ok
}

func (b *memoryBackend) Store(_ context.Context, k sweep.Key, c *uarch.Counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = c
}

func get(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestColdHerdCoalesces is acceptance criterion 1: two concurrent cold
// requests for the same figure share one render and one sweep. The gate
// holds the first render mid-sweep until the second request has verifiably
// joined it (Stats().Coalesced bumps at join time).
func TestColdHerdCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: testOptions(), Backend: backend, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := get(t, ts, "/v1/figures/3", nil)
			replies <- reply{resp.StatusCode, body}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight render")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // both requests are now riding one render; let it run

	a, b := <-replies, <-replies
	if a.status != 200 || b.status != 200 {
		t.Fatalf("statuses = %d, %d", a.status, b.status)
	}
	if string(a.body) != string(b.body) {
		t.Fatal("coalesced requests returned different bytes")
	}
	if hits, sims := backend.counts(); sims != len(core.Registry()) || hits != 0 {
		t.Fatalf("sims=%d hits=%d, want exactly one sweep (%d sims)", sims, hits, len(core.Registry()))
	}
	if got := srv.Stats().Coalesced; got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// startSignal wraps a countingBackend and closes started on the first
// Load: the render has begun, so the one request in flight started it.
type startSignal struct {
	*countingBackend
	once    sync.Once
	started chan struct{}
}

func (b *startSignal) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	b.once.Do(func() { close(b.started) })
	return b.countingBackend.Load(ctx, k)
}

// TestRenderSurvivesStarterDisconnect: the client that started a cold
// render hangs up while another request is riding it. The render must not
// die with its starter: the joiner gets 200 from the one sweep.
func TestRenderSurvivesStarterDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	gate := make(chan struct{})
	backend := &startSignal{
		countingBackend: &countingBackend{inner: newMemoryBackend(), gate: gate},
		started:         make(chan struct{}),
	}
	srv := serve.New(serve.Config{Options: testOptions(), Backend: backend, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctxA, "GET", ts.URL+"/v1/figures/3", nil)
		if err != nil {
			doneA <- err
			return
		}
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		doneA <- err
	}()
	<-backend.started

	statusB := make(chan int, 1)
	go func() {
		resp, _ := get(t, ts, "/v1/figures/3", nil)
		statusB <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight render")
		}
		time.Sleep(time.Millisecond)
	}

	cancelA()
	if err := <-doneA; err == nil {
		t.Fatal("the starter's request completed although its client hung up")
	}
	// The client has closed its connection; give the server time to see
	// it (and cancel the starter's request context) before the render may
	// go on.
	time.Sleep(100 * time.Millisecond)
	close(gate)

	if got := <-statusB; got != http.StatusOK {
		t.Fatalf("joiner status = %d, want 200", got)
	}
	if hits, sims := backend.counts(); sims != len(core.Registry()) || hits != 0 {
		t.Fatalf("sims=%d hits=%d, want exactly one sweep (%d sims)", sims, hits, len(core.Registry()))
	}
	if got := srv.Stats().Coalesced; got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// TestWarmStoreSurvivesRestart is acceptance criterion 2: a second server
// ("restarted process") over the same store directory serves the same
// bytes without a single re-simulation.
func TestWarmStoreSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	dir := t.TempDir()
	opts := testOptions()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := &countingBackend{inner: st1.Backend(nil)}
	srv1 := serve.New(serve.Config{Options: opts, Backend: cold, Logger: quietLog})
	ts1 := httptest.NewServer(srv1.Handler())
	resp1, body1 := get(t, ts1, "/v1/figures/3", nil)
	ts1.Close()
	srv1.Close()
	if resp1.StatusCode != 200 {
		t.Fatalf("cold request status = %d", resp1.StatusCode)
	}
	if _, sims := cold.counts(); sims != len(core.Registry()) {
		t.Fatalf("cold server simulated %d workloads, want %d", sims, len(core.Registry()))
	}

	st2, err := store.Open(dir) // fresh handle, fresh engine: the restart
	if err != nil {
		t.Fatal(err)
	}
	warm := &countingBackend{inner: st2.Backend(nil)}
	srv2 := serve.New(serve.Config{Options: opts, Backend: warm, Logger: quietLog})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, body2 := get(t, ts2, "/v1/figures/3", nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm request status = %d", resp2.StatusCode)
	}
	if string(body1) != string(body2) {
		t.Fatal("restarted server served different bytes")
	}
	hits, sims := warm.counts()
	if sims != 0 || hits != len(core.Registry()) {
		t.Fatalf("restart: sims=%d hits=%d, want 0 simulations and %d store hits", sims, hits, len(core.Registry()))
	}
}

// TestTable1MatchesCLI is acceptance criterion 3: the service's JSON and
// CSV for Table I are byte-identical to what the CLI emits at the same
// seed — cmd/dcbench prints exactly Table.CSV() / Table.JSON(), so parity
// with those encoders is parity with the CLI.
func TestTable1MatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization + cluster sweep")
	}
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want, _, err := report.TableByNumber(context.Background(), opts, 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts, "/v1/tables/1?format=csv", nil)
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("csv response: status=%d type=%s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if string(body) != want.CSV() {
		t.Fatalf("service CSV diverges from CLI CSV:\nservice:\n%s\ncli:\n%s", body, want.CSV())
	}

	// Accept-header negotiation must reach the same encoder as ?format=csv.
	respAccept, bodyAccept := get(t, ts, "/v1/tables/1", map[string]string{"Accept": "text/csv"})
	if respAccept.StatusCode != 200 || string(bodyAccept) != want.CSV() {
		t.Fatalf("Accept: text/csv negotiation diverges (status %d)", respAccept.StatusCode)
	}

	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	respJSON, bodyJSON := get(t, ts, "/v1/tables/1", nil)
	if respJSON.StatusCode != 200 || resp.Header.Get("Etag") == "" {
		t.Fatalf("json response: status=%d", respJSON.StatusCode)
	}
	if string(bodyJSON) != string(wantJSON) {
		t.Fatalf("service JSON diverges from CLI JSON:\n%s\nvs\n%s", bodyJSON, wantJSON)
	}
}

func TestEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs single-workload sweeps")
	}
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/healthz", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts, "/v1/workloads", nil)
	var wl struct {
		Workloads []struct {
			Name    string  `json:"name"`
			Class   string  `json:"class"`
			InputGB float64 `json:"input_gb"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatalf("workloads JSON: %v", err)
	}
	if len(wl.Workloads) != len(core.Registry()) {
		t.Fatalf("workloads = %d, want %d", len(wl.Workloads), len(core.Registry()))
	}
	if resp.Header.Get("Etag") == "" {
		t.Fatal("workloads response missing ETag")
	}
	resp, body = get(t, ts, "/v1/workloads?format=csv", nil)
	if !strings.HasPrefix(string(body), "workload,suite,class,input_gb\n") {
		t.Fatalf("workloads CSV header: %q", string(body)[:50])
	}

	resp, body = get(t, ts, "/v1/workloads/Sort/counters", nil)
	var rec struct {
		Workload string  `json:"workload"`
		IPC      float64 `json:"ipc"`
	}
	if err := json.Unmarshal(body, &rec); err != nil || rec.Workload != "Sort" || rec.IPC <= 0 {
		t.Fatalf("counters JSON = %v %+v (%s)", err, rec, body)
	}
	resp, body = get(t, ts, "/v1/workloads/Sort/counters?format=csv", nil)
	if !strings.HasPrefix(string(body), "workload,ipc,") {
		t.Fatalf("counters CSV header: %q", string(body))
	}

	// Conditional requests revalidate without rendering.
	resp, _ = get(t, ts, "/v1/figures/1", nil)
	tag := resp.Header.Get("Etag")
	if tag == "" || resp.Header.Get("Cache-Control") == "" {
		t.Fatal("figure response missing cache validators")
	}
	if resp.Header.Get("Vary") != "Accept" {
		t.Fatalf("Vary = %q; negotiated responses must vary on Accept", resp.Header.Get("Vary"))
	}
	resp, _ = get(t, ts, "/v1/figures/1", map[string]string{"If-None-Match": tag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp.StatusCode)
	}

	// Prose tables: JSON wraps the text, CSV is refused.
	resp, body = get(t, ts, "/v1/tables/3", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Table III") {
		t.Fatalf("table 3 JSON = %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/v1/tables/2?format=csv", nil)
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("prose table CSV status = %d, want 406", resp.StatusCode)
	}

	// Bad inputs.
	for path, want := range map[string]int{
		"/v1/figures/13":                http.StatusBadRequest,
		"/v1/tables/4":                  http.StatusBadRequest,
		"/v1/workloads/NoSuch/counters": http.StatusNotFound,
		"/v1/nothing":                   http.StatusNotFound,
	} {
		resp, _ = get(t, ts, path, nil)
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestShutdownCancelsSweeps: after Close, a cold render is cancelled and
// reported as 503 rather than hanging or 500ing.
func TestShutdownCancelsSweeps(t *testing.T) {
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	resp, _ := get(t, ts, "/v1/figures/12", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status = %d, want 503", resp.StatusCode)
	}
	// Errors must not be storable: a shared cache seeing "public,
	// max-age=86400" on a 503 would serve it long after recovery.
	if resp.Header.Get("Etag") != "" || strings.Contains(resp.Header.Get("Cache-Control"), "public") {
		t.Fatalf("error response carries cache validators: Etag=%q Cache-Control=%q",
			resp.Header.Get("Etag"), resp.Header.Get("Cache-Control"))
	}
}
