package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/dispatch"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// e2eOptions keeps the distributed sweeps small enough for CI while still
// covering the full registry.
func e2eOptions() report.Options {
	o := report.DefaultOptions()
	o.Instrs = 20_000
	o.Warmup = 5_000
	o.Scale = 0.003
	return o
}

// v1Paths is every read endpoint the byte-parity criterion covers: all
// figures, all tables (plus a CSV variant), the registry and one counters
// file.
func v1Paths() []string {
	var paths []string
	for i := 1; i <= 12; i++ {
		paths = append(paths, fmt.Sprintf("/v1/figures/%d", i))
	}
	paths = append(paths,
		"/v1/figures/3?format=csv",
		"/v1/tables/1", "/v1/tables/1?format=csv", "/v1/tables/2", "/v1/tables/3",
		"/v1/workloads", "/v1/workloads/Sort/counters",
	)
	return paths
}

func fetch(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// newWorkerServer boots a store-backed dcserved acting as a sweep worker
// and returns its host:port.
func newWorkerServer(t *testing.T) string {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := serve.New(serve.Config{Options: e2eOptions(), Store: st, Logger: quiet})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// countingShim wraps the dispatch backend's two faces and counts the
// engines' write-throughs — each one is a local simulation the front-end
// performed itself — split by job kind.
type countingShim struct {
	inner *dispatch.RemoteBackend
	mu    sync.Mutex
	sims  int // counter sweeps simulated locally
	hits  int // counter loads answered (local store or remote)

	statsSims int // cluster experiments simulated locally
	statsHits int
}

func (c *countingShim) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	v, ok := c.inner.Load(ctx, k)
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return v, ok
}

func (c *countingShim) Store(ctx context.Context, k sweep.Key, v *uarch.Counters) {
	c.mu.Lock()
	c.sims++
	c.mu.Unlock()
	c.inner.Store(ctx, k, v)
}

func (c *countingShim) LoadStats(ctx context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	v, ok := c.inner.LoadStats(ctx, k)
	if ok {
		c.mu.Lock()
		c.statsHits++
		c.mu.Unlock()
	}
	return v, ok
}

func (c *countingShim) StoreStats(ctx context.Context, k workloads.StatsKey, v *workloads.Stats) {
	c.mu.Lock()
	c.statsSims++
	c.mu.Unlock()
	c.inner.StoreStats(ctx, k, v)
}

func (c *countingShim) counts() (sims, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sims, c.hits
}

func (c *countingShim) statsCounts() (sims, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsSims, c.statsHits
}

// newFrontEnd assembles a front-end server: a dispatch backend over the
// given workers for both job kinds, writing through to its own store,
// with the engines' write-throughs counted (those are front-end local
// simulations).
func newFrontEnd(t *testing.T, frontStore *store.Store, workers ...string) (*httptest.Server, *dispatch.RemoteBackend, *countingShim) {
	t.Helper()
	opts := e2eOptions()
	remote, err := dispatch.New(dispatch.Options{Workers: workers}, opts.Warmup,
		frontStore.Backend(quiet), quiet)
	if err != nil {
		t.Fatal(err)
	}
	shim := &countingShim{inner: remote}
	srv := serve.New(serve.Config{Options: opts, Store: frontStore, Backend: shim, Cluster: shim, Logger: quiet})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, remote, shim
}

// clusterCellCount is the number of distinct cluster experiment cells the
// full endpoint walk renders: every Table I workload at the Figure 2
// slave counts (Figure 5 and Table I reuse the 4-slave column).
func clusterCellCount() int { return 3 * len(workloads.All()) }

// TestDistributedByteParityAndWarmRestart is the PR's acceptance walk: a
// front-end with one worker serves every /v1 endpoint byte-identically to
// a single-process dcserved without simulating a single sweep key or
// cluster experiment itself (both job kinds land on the worker); a
// restarted front-end over the same store re-simulates and re-dispatches
// nothing of either kind.
func TestDistributedByteParityAndWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full registry sweeps")
	}
	// Single-process baseline.
	local := serve.New(serve.Config{Options: e2eOptions(), Logger: quiet})
	t.Cleanup(local.Close)
	localTS := httptest.NewServer(local.Handler())
	t.Cleanup(localTS.Close)
	baseline := map[string][]byte{}
	for _, p := range v1Paths() {
		baseline[p] = fetch(t, localTS, p)
	}

	// Front-end over one worker.
	workerAddr := newWorkerServer(t)
	frontStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontStore.Close() })
	frontTS, remote, shim := newFrontEnd(t, frontStore, workerAddr)
	for _, p := range v1Paths() {
		if got := fetch(t, frontTS, p); string(got) != string(baseline[p]) {
			t.Errorf("%s: front-end bytes diverge from single-process dcserved", p)
		}
	}
	nkeys := len(core.Registry())
	ncluster := clusterCellCount()
	if sims, _ := shim.counts(); sims != 0 {
		t.Fatalf("front-end simulated %d sweep keys itself; the worker must do all of them", sims)
	}
	if sims, _ := shim.statsCounts(); sims != 0 {
		t.Fatalf("front-end simulated %d cluster experiments itself; the worker must do all of them", sims)
	}
	d := remote.Stats()
	if d.RemoteHits != int64(nkeys+ncluster) || d.Fallbacks != 0 {
		t.Fatalf("dispatch stats = %+v, want %d remote hits (both kinds) and no fallbacks", d, nkeys+ncluster)
	}
	for _, pk := range d.PerKind {
		want := int64(nkeys)
		if pk.Kind == store.KindCluster {
			want = int64(ncluster)
		}
		if pk.RemoteHits != want || pk.Fallbacks != 0 {
			t.Fatalf("kind %s stats = %+v, want %d remote hits and no fallbacks", pk.Kind, pk, want)
		}
	}

	// Restart: same store, but the "worker" address now refuses
	// connections. Everything must come from the write-through store —
	// zero simulations AND zero dispatches, for both kinds.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(deadTS.URL, "http://")
	deadTS.Close()
	front2TS, remote2, shim2 := newFrontEnd(t, frontStore, deadAddr)
	for _, p := range v1Paths() {
		if got := fetch(t, front2TS, p); string(got) != string(baseline[p]) {
			t.Errorf("%s: restarted front-end bytes diverge", p)
		}
	}
	if sims, hits := shim2.counts(); sims != 0 || hits != nkeys {
		t.Fatalf("restart: sims=%d hits=%d, want 0 simulations and %d store hits", sims, hits, nkeys)
	}
	if sims, hits := shim2.statsCounts(); sims != 0 || hits != ncluster {
		t.Fatalf("restart: cluster sims=%d hits=%d, want 0 re-simulations and %d store hits", sims, hits, ncluster)
	}
	if d := remote2.Stats(); d.Dispatched != 0 {
		t.Fatalf("restarted front-end dispatched %d jobs; the store should have answered all of them", d.Dispatched)
	}
}

// TestWorkerKilledMidSweep: one worker dies partway through the sweep (it
// answers a few keys, then every request fails); the front-end retries the
// survivor and still serves bytes identical to a single-process render,
// with no local fallback.
func TestWorkerKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full registry sweeps")
	}
	local := serve.New(serve.Config{Options: e2eOptions(), Logger: quiet})
	t.Cleanup(local.Close)
	localTS := httptest.NewServer(local.Handler())
	t.Cleanup(localTS.Close)
	want := fetch(t, localTS, "/v1/figures/3")

	// The doomed worker: a real worker that dies after 5 answers.
	doomedSrv := serve.New(serve.Config{Options: e2eOptions(), Logger: quiet})
	t.Cleanup(doomedSrv.Close)
	doomedH := doomedSrv.Handler()
	var answered atomic.Int64
	doomedTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answered.Add(1) > 5 {
			http.Error(w, "worker killed mid-sweep", http.StatusInternalServerError)
			return
		}
		doomedH.ServeHTTP(w, r)
	}))
	t.Cleanup(doomedTS.Close)
	survivor := newWorkerServer(t)

	frontStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontStore.Close() })
	frontTS, remote, shim := newFrontEnd(t, frontStore, strings.TrimPrefix(doomedTS.URL, "http://"), survivor)

	if got := fetch(t, frontTS, "/v1/figures/3"); string(got) != string(want) {
		t.Fatal("bytes diverge after a worker died mid-sweep")
	}
	if sims, _ := shim.counts(); sims != 0 {
		t.Fatalf("front-end fell back to %d local simulations; the survivor should have absorbed the sweep", sims)
	}
	d := remote.Stats()
	if d.Fallbacks != 0 || d.RemoteHits != int64(len(core.Registry())) {
		t.Fatalf("dispatch stats = %+v, want every key remote with no fallbacks", d)
	}
}

// TestAllWorkersDarkFallsBackLocally: with every worker blackholed the
// front-end degrades to local simulation — counted, and byte-identical.
func TestAllWorkersDarkFallsBackLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full registry sweeps")
	}
	local := serve.New(serve.Config{Options: e2eOptions(), Logger: quiet})
	t.Cleanup(local.Close)
	localTS := httptest.NewServer(local.Handler())
	t.Cleanup(localTS.Close)
	want := fetch(t, localTS, "/v1/figures/4")

	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(deadTS.URL, "http://")
	deadTS.Close()
	frontStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontStore.Close() })
	frontTS, remote, shim := newFrontEnd(t, frontStore, deadAddr)

	if got := fetch(t, frontTS, "/v1/figures/4"); string(got) != string(want) {
		t.Fatal("local-fallback bytes diverge from single-process dcserved")
	}
	nkeys := len(core.Registry())
	if sims, _ := shim.counts(); sims != nkeys {
		t.Fatalf("front-end simulated %d keys, want all %d locally", sims, nkeys)
	}
	d := remote.Stats()
	if d.Fallbacks != int64(nkeys) || d.RemoteHits != 0 {
		t.Fatalf("dispatch stats = %+v, want %d counted fallbacks", d, nkeys)
	}
}

// TestConcurrentIdenticalJobsPostOnce: N clients posting the same cold
// counters job to a front-end cost its worker exactly one POST. The
// engine consults its backend inside the key's memo cell, so that cell is
// all the coalescing the dispatch path needs.
func TestConcurrentIdenticalJobsPostOnce(t *testing.T) {
	const clients = 8
	var posts atomic.Int64
	release := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.JobRequest
		var key sweep.Key
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || json.Unmarshal(req.Key, &key) != nil {
			http.Error(w, "unreadable job", http.StatusBadRequest)
			return
		}
		posts.Add(1)
		<-release // hold the job until every client is waiting on it
		data, err := store.Counters.Encode(key, &uarch.Counters{Cycles: 42})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(worker.Close)
	frontStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontStore.Close() })
	frontTS, remote, _ := newFrontEnd(t, frontStore, strings.TrimPrefix(worker.URL, "http://"))

	opts := e2eOptions()
	cfg := uarch.DefaultConfig()
	cfg.Warmup = opts.Warmup
	wl := core.Registry()[0]
	rawKey, err := json.Marshal(sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: cfg.Fingerprint(), MaxInstrs: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.JobRequest{Kind: store.KindCounters, Key: rawKey, Warmup: opts.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := frontTS.Client().Post(frontTS.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				errs <- err
			case resp.StatusCode != http.StatusOK:
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
			default:
				_, c, err := store.Counters.Decode(data)
				if err == nil && c.Cycles != 42 {
					err = fmt.Errorf("answer carries Cycles %d, want the worker's 42", c.Cycles)
				}
				errs <- err
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for posts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never saw the dispatched job")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the other clients reach the in-flight cell
	close(release)
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("%d identical concurrent jobs sent %d POSTs to the worker, want 1", clients, n)
	}
	if d := remote.Stats(); d.Dispatched != 1 || d.RemoteHits != 1 {
		t.Fatalf("dispatch stats = %+v, want one dispatched job answered remotely", d)
	}
}
