package dispatch

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/memtrace"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// testCtx is the untraced context every backend call in these tests runs
// under; tracing has its own tests.
var testCtx = context.Background()

func testKey(name string, seed uint64) sweep.Key {
	return sweep.Key{
		Name:      name,
		Profile:   memtrace.Profile{Seed: seed, MaxInstrs: 1000},
		ConfigFP:  0xc0ffee,
		MaxInstrs: 1000,
	}
}

func testStatsKey(name string, slaves int) workloads.StatsKey {
	return workloads.StatsKey{Workload: name, Slaves: slaves, Scale: 0.01, Seed: 7}
}

// counterAddr and clusterAddr are the rendezvous inputs: the keys' record
// content addresses.
func counterAddr(t *testing.T, k sweep.Key) string {
	t.Helper()
	a, err := store.Counters.Addr(k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func clusterAddr(t *testing.T, k workloads.StatsKey) string {
	t.Helper()
	a, err := store.Cluster.Addr(k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// addrOf strips the scheme off an httptest server URL — the host:port form
// the -workers flag takes.
func addrOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// mapBackend is an in-memory local backend for both job kinds.
type mapBackend struct {
	mu sync.Mutex
	m  map[sweep.Key]*uarch.Counters
	st map[workloads.StatsKey]*workloads.Stats
}

func newMapBackend() *mapBackend {
	return &mapBackend{
		m:  map[sweep.Key]*uarch.Counters{},
		st: map[workloads.StatsKey]*workloads.Stats{},
	}
}

func (b *mapBackend) Load(_ context.Context, k sweep.Key) (*uarch.Counters, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.m[k]
	return c, ok
}

func (b *mapBackend) Store(_ context.Context, k sweep.Key, c *uarch.Counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = c
}

func (b *mapBackend) LoadStats(_ context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.st[k]
	return st, ok
}

func (b *mapBackend) StoreStats(_ context.Context, k workloads.StatsKey, st *workloads.Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.st[k] = st
}

// fakeWorker answers /v1/jobs for both kinds with a well-formed record for
// the requested key (counters: Cycles = the key's seed; cluster: Jobs =
// the key's slave count — so responses are checkable), counting requests.
// broken makes it 500 instead.
func fakeWorker(t *testing.T, broken bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if broken {
			http.Error(w, "synthetic failure", http.StatusInternalServerError)
			return
		}
		var req struct {
			Kind   string          `json:"kind"`
			Key    json.RawMessage `json:"key"`
			Warmup int64           `json:"warmup"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var data []byte
		var err error
		switch req.Kind {
		case store.KindCounters:
			var key sweep.Key
			if err := json.Unmarshal(req.Key, &key); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			data, err = store.Counters.Encode(key, &uarch.Counters{Cycles: int64(key.Profile.Seed)})
		case store.KindCluster:
			var key workloads.StatsKey
			if err := json.Unmarshal(req.Key, &key); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			data, err = store.Cluster.Encode(key, &workloads.Stats{Workload: key.Workload, Jobs: key.Slaves})
		default:
			http.Error(w, "unknown kind "+req.Kind, http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return ts, &served
}

// sheddingWorker answers every job with 429 and the given Retry-After.
func sheddingWorker(t *testing.T, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "worker saturated", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	return ts, &served
}

func newTestBackend(t *testing.T, local *mapBackend, addrs ...string) *RemoteBackend {
	t.Helper()
	var l store.Backend
	if local != nil {
		l = local
	}
	b, err := New(Options{Workers: addrs}, 0, l, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadPrefersLocal: a warm local backend answers without any dispatch.
func TestLoadPrefersLocal(t *testing.T) {
	ts, served := fakeWorker(t, false)
	local := newMapBackend()
	k := testKey("w", 1)
	want := &uarch.Counters{Cycles: 77}
	local.Store(testCtx, k, want)

	b := newTestBackend(t, local, addrOf(ts))
	c, ok := b.Load(testCtx, k)
	if !ok || c != want {
		t.Fatalf("Load = %v, %v; want the local pointer", c, ok)
	}
	if served.Load() != 0 {
		t.Fatalf("local hit still dispatched %d requests", served.Load())
	}
	if d := b.Stats(); d.Dispatched != 0 {
		t.Fatalf("Dispatched = %d, want 0", d.Dispatched)
	}
}

// TestRemoteHitWritesThrough: a remote answer lands in the local backend,
// so the next Load never leaves the process — the restart-warm property.
func TestRemoteHitWritesThrough(t *testing.T) {
	ts, served := fakeWorker(t, false)
	local := newMapBackend()
	b := newTestBackend(t, local, addrOf(ts))
	k := testKey("w", 9)

	c, ok := b.Load(testCtx, k)
	if !ok || c.Cycles != 9 {
		t.Fatalf("Load = %+v, %v", c, ok)
	}
	if got, ok := local.Load(testCtx, k); !ok || got.Cycles != 9 {
		t.Fatal("remote result was not written through to the local backend")
	}
	if _, ok := b.Load(testCtx, k); !ok {
		t.Fatal("second Load missed")
	}
	if served.Load() != 1 {
		t.Fatalf("worker served %d requests, want 1 (second Load must hit local)", served.Load())
	}
	d := b.Stats()
	if d.Dispatched != 1 || d.RemoteHits != 1 || d.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 dispatched / 1 remote hit / 0 fallbacks", d)
	}
}

// TestClusterJobDispatch: the same backend dispatches cluster experiment
// keys through workloads.StatsBackend — remote hit, write-through, and a
// per-kind stats split that keeps the two kinds' ledgers apart.
func TestClusterJobDispatch(t *testing.T) {
	ts, served := fakeWorker(t, false)
	local := newMapBackend()
	b := newTestBackend(t, local, addrOf(ts))
	k := testStatsKey("Sort", 8)

	st, ok := b.LoadStats(testCtx, k)
	if !ok || st.Jobs != 8 {
		t.Fatalf("LoadStats = %+v, %v", st, ok)
	}
	if got, ok := local.LoadStats(testCtx, k); !ok || got.Jobs != 8 {
		t.Fatal("remote cluster result was not written through to the local stats backend")
	}
	if _, ok := b.LoadStats(testCtx, k); !ok {
		t.Fatal("second LoadStats missed")
	}
	if served.Load() != 1 {
		t.Fatalf("worker served %d requests, want 1 (second LoadStats must hit local)", served.Load())
	}
	// A warm local stats entry must not dispatch either.
	d := b.Stats()
	if d.Dispatched != 1 || d.RemoteHits != 1 {
		t.Fatalf("aggregate stats = %+v, want 1 dispatched / 1 remote hit", d)
	}
	var cluster, counters KindStats
	for _, pk := range d.PerKind {
		switch pk.Kind {
		case store.KindCluster:
			cluster = pk
		case store.KindCounters:
			counters = pk
		}
	}
	if cluster.Dispatched != 1 || cluster.RemoteHits != 1 {
		t.Fatalf("cluster kind stats = %+v, want 1/1", cluster)
	}
	if counters.Dispatched != 0 {
		t.Fatalf("counters kind stats = %+v, want untouched", counters)
	}

	// StoreStats writes through like Store.
	k2 := testStatsKey("Grep", 2)
	sim := &workloads.Stats{Workload: "Grep", Jobs: 2}
	b.StoreStats(testCtx, k2, sim)
	if got, ok := local.LoadStats(testCtx, k2); !ok || got != sim {
		t.Fatal("StoreStats did not write through to the local stats backend")
	}
}

// TestRetryOnFailingWorker: a 500ing worker is retried past onto the
// surviving one and every fetch still succeeds.
func TestRetryOnFailingWorker(t *testing.T) {
	bad, _ := fakeWorker(t, true)
	good, goodServed := fakeWorker(t, false)
	b := newTestBackend(t, nil, addrOf(bad), addrOf(good))

	// Whatever the rendezvous order, with retries both workers get a shot.
	for seed := uint64(0); seed < 4; seed++ {
		c, ok := b.Load(testCtx, testKey("w", seed))
		if !ok || c.Cycles != int64(seed) {
			t.Fatalf("seed %d: Load = %+v, %v; the surviving worker must answer", seed, c, ok)
		}
	}
	if goodServed.Load() < 4 {
		t.Fatalf("surviving worker served %d, want >= 4", goodServed.Load())
	}
	d := b.Stats()
	if d.RemoteHits != 4 || d.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 4 remote hits and 0 fallbacks", d)
	}
}

// TestFallbackWhenAllWorkersDark: every worker unreachable → Load is a
// counted fallback miss, so the engine simulates locally; the local
// simulation's write-through still works.
func TestFallbackWhenAllWorkersDark(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // bound then closed: connection refused immediately
	local := newMapBackend()
	b := newTestBackend(t, local, addrOf(dead))
	k := testKey("w", 3)

	if _, ok := b.Load(testCtx, k); ok {
		t.Fatal("Load succeeded against a dead worker set")
	}
	d := b.Stats()
	if d.Fallbacks != 1 || d.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want exactly 1 fallback", d)
	}
	// The engine's write-through path after a local simulation.
	sim := &uarch.Counters{Cycles: 42}
	b.Store(testCtx, k, sim)
	if got, ok := local.Load(testCtx, k); !ok || got != sim {
		t.Fatal("Store did not write through to the local backend")
	}
}

// TestShedWorkerDemotedAndRecovers: a 429 demotes the worker in ranking
// for exactly its Retry-After window — without opening its circuit — and
// the fetch lands on the next-ranked worker.
func TestShedWorkerDemotedAndRecovers(t *testing.T) {
	shed, shedServed := sheddingWorker(t, "5")
	good, _ := fakeWorker(t, false)
	b := newTestBackend(t, nil, addrOf(shed), addrOf(good))
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return clock }

	// A key that ranks the shedding worker first: the 429 must move the
	// attempt to the good worker, not fail the fetch.
	var k sweep.Key
	for seed := uint64(0); ; seed++ {
		k = testKey("w", seed)
		if order, _ := b.rank(counterAddr(t, k)); order[0].addr == addrOf(shed) {
			break
		}
	}
	c, ok := b.Load(testCtx, k)
	if !ok || c.Cycles != int64(k.Profile.Seed) {
		t.Fatalf("Load = %+v, %v; the un-saturated worker must answer", c, ok)
	}
	if shedServed.Load() != 1 {
		t.Fatalf("shedding worker saw %d requests, want 1", shedServed.Load())
	}

	d := b.Stats()
	if d.Shed != 1 || d.Healthy != 2 {
		t.Fatalf("stats = %+v, want 1 shed and both workers healthy (429 is not a circuit failure)", d)
	}
	var shedStats WorkerStats
	for _, w := range d.PerWorker {
		if w.Addr == addrOf(shed) {
			shedStats = w
		}
	}
	if !shedStats.Shedding || shedStats.CircuitOpen || shedStats.Shed != 1 || shedStats.Errors != 0 {
		t.Fatalf("shedding worker stats = %+v, want shedding, circuit closed, 1 shed, 0 errors", shedStats)
	}

	// While the Retry-After window is open the shedding worker ranks last.
	if order, alive := b.rank(counterAddr(t, k)); order[len(order)-1].addr != addrOf(shed) || alive != 2 {
		t.Fatalf("shedding worker not demoted (order[last] = %s, alive = %d)", order[len(order)-1].addr, alive)
	}
	// Past the window it is back in its rendezvous slot.
	clock = clock.Add(6 * time.Second)
	if order, _ := b.rank(counterAddr(t, k)); order[0].addr != addrOf(shed) {
		t.Fatal("worker still demoted after its Retry-After window passed")
	}
	if b.Stats().PerWorker[0].Shedding {
		t.Fatal("worker still reported shedding after its Retry-After window passed")
	}
}

// TestFullySheddingClusterFallsBack: when every worker sheds, a fetch
// exhausts its attempts on 429s and degrades to a counted local fallback
// — circuits stay closed (the workers are saturated, not broken), so the
// next key probes them again instead of failing fast for a cooldown.
func TestFullySheddingClusterFallsBack(t *testing.T) {
	s1, served1 := sheddingWorker(t, "1")
	s2, served2 := sheddingWorker(t, "1")
	local := newMapBackend()
	b := newTestBackend(t, local, addrOf(s1), addrOf(s2))

	if _, ok := b.Load(testCtx, testKey("w", 3)); ok {
		t.Fatal("Load succeeded against a fully shedding worker set")
	}
	if _, ok := b.LoadStats(testCtx, testStatsKey("Sort", 4)); ok {
		t.Fatal("LoadStats succeeded against a fully shedding worker set")
	}
	if served1.Load()+served2.Load() == 0 {
		t.Fatal("no worker was ever attempted")
	}
	d := b.Stats()
	if d.Fallbacks != 2 || d.Healthy != 2 || d.Shed == 0 {
		t.Fatalf("stats = %+v, want 2 fallbacks, 2 healthy workers, nonzero shed", d)
	}
	for _, pk := range d.PerKind {
		if pk.Fallbacks != 1 {
			t.Fatalf("kind %s fallbacks = %d, want 1 (one per kind)", pk.Kind, pk.Fallbacks)
		}
	}
	// Saturation is not failure: no circuit opened, no error charged.
	for _, w := range d.PerWorker {
		if w.CircuitOpen || w.Errors != 0 {
			t.Fatalf("worker %s: circuit_open=%v errors=%d after shedding only", w.Addr, w.CircuitOpen, w.Errors)
		}
	}
}

// TestCircuitOpensAndRecovers: failThreshold consecutive failures demote a
// worker behind healthy ones; after the cooldown it is probed again.
func TestCircuitOpensAndRecovers(t *testing.T) {
	bad, _ := fakeWorker(t, true)
	good, _ := fakeWorker(t, false)
	b := newTestBackend(t, nil, addrOf(bad), addrOf(good))
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return clock }

	// Drive keys that rank the bad worker first until its circuit opens.
	opened := false
	for seed := uint64(0); seed < 256 && !opened; seed++ {
		k := testKey("w", seed)
		if order, _ := b.rank(counterAddr(t, k)); order[0].addr != addrOf(bad) {
			continue
		}
		if _, ok := b.Load(testCtx, k); !ok {
			t.Fatalf("seed %d: fetch failed with a healthy worker present", seed)
		}
		opened = b.Stats().Healthy == 1
	}
	if !opened {
		t.Fatal("bad worker's circuit never opened")
	}
	d := b.Stats()
	var badStats WorkerStats
	for _, w := range d.PerWorker {
		if w.Addr == addrOf(bad) {
			badStats = w
		}
	}
	if !badStats.CircuitOpen || badStats.Errors < int64(failThreshold) {
		t.Fatalf("bad worker stats = %+v, want an open circuit after >= %d errors", badStats, failThreshold)
	}

	// With the circuit open, the good worker ranks first for every key:
	// fetches succeed first-try and the demoted worker sees no traffic.
	sentBefore := badStats.Sent
	for seed := uint64(300); seed < 308; seed++ {
		if _, ok := b.Load(testCtx, testKey("w", seed)); !ok {
			t.Fatalf("seed %d: fetch failed while circuit open", seed)
		}
	}
	for _, w := range b.Stats().PerWorker {
		if w.Addr == addrOf(bad) && w.Sent != sentBefore {
			t.Fatalf("circuit-open worker still saw %d new requests", w.Sent-sentBefore)
		}
	}

	// Past the cooldown the worker counts as healthy and is probed again.
	clock = clock.Add(defaultCooldown + time.Second)
	if got := b.Stats().Healthy; got != 2 {
		t.Fatalf("healthy after cooldown = %d, want 2", got)
	}
}

// TestDarkClusterFailsFast: once every worker's circuit is open, a fetch
// returns a counted fallback without contacting anyone — no per-key
// timeout against workers already known dark — and the cooldown's expiry
// alone restores probing.
func TestDarkClusterFailsFast(t *testing.T) {
	bad, _ := fakeWorker(t, true)
	b := newTestBackend(t, nil, addrOf(bad))
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return clock }

	for seed := uint64(0); seed < uint64(failThreshold); seed++ {
		if _, ok := b.Load(testCtx, testKey("w", seed)); ok {
			t.Fatal("broken worker answered")
		}
	}
	sentBefore := b.Stats().PerWorker[0].Sent
	if _, ok := b.Load(testCtx, testKey("w", 99)); ok {
		t.Fatal("dark cluster answered")
	}
	d := b.Stats()
	if d.PerWorker[0].Sent != sentBefore {
		t.Fatalf("circuit-open worker was contacted (%d new requests); want fail-fast", d.PerWorker[0].Sent-sentBefore)
	}
	if d.Fallbacks != int64(failThreshold)+1 {
		t.Fatalf("fallbacks = %d, want %d (every miss counted)", d.Fallbacks, failThreshold+1)
	}

	// The cooldown restores probing by itself.
	clock = clock.Add(defaultCooldown + time.Second)
	if _, ok := b.Load(testCtx, testKey("w", 100)); ok {
		t.Fatal("broken worker answered after cooldown")
	}
	if got := b.Stats().PerWorker[0].Sent; got != sentBefore+1 {
		t.Fatalf("post-cooldown probe count = %d, want %d", got, sentBefore+1)
	}
}

// TestRendezvousStableAndSpread: one key always ranks the workers in the
// same order (so a shared worker set simulates each key once), and
// different keys spread across the set — for both job kinds.
func TestRendezvousStableAndSpread(t *testing.T) {
	b, err := New(Options{Workers: []string{"a:1", "b:1", "c:1"}}, 0, nil, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]int{}
	for seed := uint64(0); seed < 64; seed++ {
		k := testKey("w", seed)
		r1, _ := b.rank(counterAddr(t, k))
		r2, _ := b.rank(counterAddr(t, k))
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("seed %d: rank is not deterministic", seed)
			}
		}
		first[r1[0].addr]++
	}
	if len(first) != 3 {
		t.Fatalf("64 keys landed on %d workers, want all 3 (distribution %v)", len(first), first)
	}
	clusterFirst := map[string]int{}
	for slaves := 1; slaves <= 64; slaves++ {
		k := testStatsKey("Sort", slaves)
		r1, _ := b.rank(clusterAddr(t, k))
		r2, _ := b.rank(clusterAddr(t, k))
		if r1[0] != r2[0] {
			t.Fatalf("slaves %d: cluster rank is not deterministic", slaves)
		}
		clusterFirst[r1[0].addr]++
	}
	if len(clusterFirst) != 3 {
		t.Fatalf("64 cluster keys landed on %d workers, want all 3 (%v)", len(clusterFirst), clusterFirst)
	}
}

// TestRegisterFlagsParsesWorkerList pins dcserved's dispatch flag
// surface: the list flag splits and trims, unset flags keep their
// defaults, the retry count is the defaultRetries constant rather than a
// flag, and an empty worker set refuses to build a backend.
func TestRegisterFlagsParsesWorkerList(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs, &o)
	if err := fs.Parse([]string{"-workers", "n1:8337, n2:8337,,n3:8337"}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(o.Workers, "|") != "n1:8337|n2:8337|n3:8337" {
		t.Fatalf("Workers = %v", o.Workers)
	}
	if o.Replicas != 1 {
		t.Fatalf("parsed options = %+v, want defaults where unset", o)
	}
	if fs.Parse([]string{"-dispatch-retries", "5"}) == nil {
		t.Fatal("-dispatch-retries parsed; the retry count is DefaultRetries, not a flag")
	}
	if fs.Parse([]string{"-dispatch-timeout", "5s"}) == nil {
		t.Fatal("-dispatch-timeout parsed; the attempt timeout is DefaultTimeout, not a flag")
	}
	if _, err := New(Options{}, 0, nil, nil); err == nil {
		t.Fatal("New accepted an empty worker set")
	}
}

// TestCancelAbortsWorkerRequest: when every caller of a dispatched fetch
// cancels, the in-flight HTTP request to the worker is aborted (the
// refcounted run context reaches the wire) and the cancellation is NOT
// counted as a cluster fallback — the engine aborts instead of simulating.
func TestCancelAbortsWorkerRequest(t *testing.T) {
	var started, aborted atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for a client
		// disconnect (and cancels r.Context) once the request is consumed.
		io.Copy(io.Discard, r.Body)
		started.Add(1)
		<-r.Context().Done() // park until the dispatcher hangs up
		aborted.Add(1)
	}))
	t.Cleanup(ts.Close)
	b := newTestBackend(t, nil, addrOf(ts))

	ctx, cancel := context.WithCancel(context.Background())
	loadDone := make(chan bool, 1)
	go func() {
		_, ok := b.Load(ctx, testKey("w", 3))
		loadDone <- ok
	}()
	deadline := time.Now().Add(10 * time.Second)
	for started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never saw the dispatched request")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case ok := <-loadDone:
		if ok {
			t.Fatal("cancelled Load reported a hit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Load did not return after cancellation")
	}
	// Every attempt the dispatcher made must observe the abort.
	for aborted.Load() != started.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d worker requests aborted", aborted.Load(), started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	d := b.Stats()
	if d.Fallbacks != 0 {
		t.Fatalf("caller cancellation counted %d fallbacks, want 0", d.Fallbacks)
	}
	if d.InFlight != 0 {
		t.Fatalf("dispatch still reports %d in flight", d.InFlight)
	}
}

// TestReplicaRotationSpreadsReads: with -dispatch-replicas 3 over three
// healthy workers, repeated reads of the SAME key rotate across all three
// instead of pinning the owner, with zero fallbacks — the replicated
// store makes every copy answer identically, so the front-end is free to
// spread read load. With the default (owner-only) the same reads all land
// on one worker.
func TestReplicaRotationSpreadsReads(t *testing.T) {
	var counts []*atomic.Int64
	var addrs []string
	for i := 0; i < 3; i++ {
		ts, served := fakeWorker(t, false)
		counts = append(counts, served)
		addrs = append(addrs, addrOf(ts))
	}
	k := testKey("w", 7)

	// Owner-only first: all reads land on exactly one worker.
	solo, err := New(Options{Workers: addrs}, 0, nil, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if c, ok := solo.Load(context.Background(), k); !ok || c.Cycles != int64(k.Profile.Seed) {
			t.Fatalf("load %d: got %+v ok=%v", i, c, ok)
		}
	}
	touched := 0
	for _, c := range counts {
		if c.Load() > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("owner-only reads touched %d workers, want 1", touched)
	}
	for _, c := range counts {
		c.Store(0)
	}

	// Rotation: the same key's reads spread across all three replicas.
	rot, err := New(Options{Workers: addrs, Replicas: 3}, 0, nil, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if c, ok := rot.Load(context.Background(), k); !ok || c.Cycles != int64(k.Profile.Seed) {
			t.Fatalf("rotated load %d: got %+v ok=%v", i, c, ok)
		}
	}
	for i, c := range counts {
		if c.Load() == 0 {
			t.Fatalf("worker %d never served under rotation (counts %d %d %d)",
				i, counts[0].Load(), counts[1].Load(), counts[2].Load())
		}
	}
	d := rot.Stats()
	if d.Fallbacks != 0 {
		t.Fatalf("rotation counted %d fallbacks, want 0", d.Fallbacks)
	}
	if d.RemoteHits != 9 {
		t.Fatalf("rotation remote hits = %d, want 9", d.RemoteHits)
	}
}

// TestWorkerDiagnosticsSurface pins the /healthz worker fields: a failing
// worker reports its consecutive-failure count and last error string, and
// one success clears both.
func TestWorkerDiagnosticsSurface(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	good, _ := fakeWorker(t, false)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "synthetic failure", http.StatusInternalServerError)
			return
		}
		// Delegate to the well-formed worker once healthy.
		resp, err := http.Post(good.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(flaky.Close)

	b, err := New(Options{Workers: []string{addrOf(flaky)}}, 0, nil, quietLog)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("w", 3)
	if _, ok := b.Load(context.Background(), k); ok {
		t.Fatal("load against a failing worker reported a hit")
	}
	ws := b.Stats().PerWorker[0]
	if ws.ConsecutiveFails == 0 {
		t.Fatal("failing worker reports zero consecutive fails")
	}
	if ws.LastError == "" {
		t.Fatal("failing worker reports no last error")
	}

	failing.Store(false)
	if c, ok := b.Load(context.Background(), k); !ok || c.Cycles != int64(k.Profile.Seed) {
		t.Fatalf("recovered load: got %+v ok=%v", c, ok)
	}
	ws = b.Stats().PerWorker[0]
	if ws.ConsecutiveFails != 0 || ws.LastError != "" {
		t.Fatalf("success did not clear diagnostics: fails=%d lastErr=%q", ws.ConsecutiveFails, ws.LastError)
	}
}
