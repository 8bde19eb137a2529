package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// postJSON sends one POST and returns the response.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var data []byte
	switch b := body.(type) {
	case []byte:
		data = b
	default:
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// jobRequest builds a kind-tagged /v1/jobs body.
func jobRequest(t *testing.T, kind string, key any, warmup int64) serve.JobRequest {
	t.Helper()
	raw, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	return serve.JobRequest{Kind: kind, Key: raw, Warmup: warmup}
}

// TestJobsCountersEndpoint: the unified compute endpoint runs a counters
// job and answers with a verifiable record holding exactly the counters a
// local engine produces for it — the bit-parity the dispatch layer's
// byte-identical responses are built on.
func TestJobsCountersEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := core.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.CoreConfig()
	key := sweep.Key{
		Name:      wl.Name,
		Profile:   wl.Profile,
		ConfigFP:  cfg.Fingerprint(),
		MaxInstrs: opts.Warmup + opts.Instrs,
	}
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs status = %d: %s", resp.StatusCode, body)
	}
	gotKey, gotC, err := store.Counters.Decode(body)
	if err != nil {
		t.Fatalf("response does not verify: %v", err)
	}
	if gotKey != key {
		t.Fatalf("response key = %+v, want the requested key", gotKey)
	}

	// Local oracle: the same job on a fresh engine.
	jobs := []sweep.Job{{Name: wl.Name, Profile: wl.Profile, Gen: wl.Gen}}
	want, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, key.MaxInstrs, sweep.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, want[0]) {
		t.Fatal("worker counters diverge from a local simulation of the same key")
	}

	// A second request for the same key rides the worker's memo: same bytes.
	_, body2 := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated counters job returned different bytes")
	}
}

// TestJobsNeverSeenSeedsHoldNoTraceBytes: a /v1/jobs stream of client-
// chosen seeds under the server's one machine — the traffic a worker
// actually sees — runs every job on a live generator: each answer is the
// record of its own seed, and a storeless server reports no store block at
// all, because nothing below the result memo (no store, no trace bytes)
// holds state for it.
func TestJobsNeverSeenSeedsHoldNoTraceBytes(t *testing.T) {
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := core.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		key := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: 20_000}
		key.Profile.Seed = seed
		resp, body := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status = %d: %s", seed, resp.StatusCode, body)
		}
		if got, _, err := store.Counters.Decode(body); err != nil || got != key {
			t.Fatalf("seed %d: answer decodes to key %+v (err %v), want the requested key", seed, got, err)
		}
	}
	var h map[string]json.RawMessage
	_, body := get(t, ts, "/healthz", nil)
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if blk, ok := h["store"]; ok {
		t.Errorf("storeless /healthz carries a store block: %s", blk)
	}
}

// TestJobsClusterEndpoint: a cluster job runs one Figure 2/5 cell and
// answers with a verifiable cluster record matching a local simulation of
// the same key, memoized across requests.
func TestJobsClusterEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster experiment")
	}
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	key := workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: opts.Scale, Seed: opts.Seed}
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCluster, key, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster job status = %d: %s", resp.StatusCode, body)
	}
	gotKey, gotSt, err := store.Cluster.Decode(body)
	if err != nil {
		t.Fatalf("response does not verify: %v", err)
	}
	if gotKey != key {
		t.Fatalf("response key = %+v, want %+v", gotKey, key)
	}

	// Local oracle: the same cell simulated directly.
	w := workloads.ByName(key.Workload)
	want, err := w.Run(workloads.NewEnv(key.Slaves, key.Scale, key.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSt, want) {
		t.Fatalf("worker cluster stats diverge from a local run\ngot:  %+v\nwant: %+v", gotSt, want)
	}

	// Memoized: the repeat answers identical bytes.
	_, body2 := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCluster, key, 0))
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated cluster job returned different bytes")
	}
}

// TestJobsRejections pins the endpoint's refusals: unknown kinds, unknown
// workloads, a config fingerprint the worker cannot rebuild, absurd
// cluster keys and garbage bodies must all fail loudly — never simulate
// the wrong thing.
func TestJobsRejections(t *testing.T) {
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := opts.CoreConfig()
	wl, err := core.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}

	resp, _ := postJSON(t, ts, "/v1/jobs", jobRequest(t, "warp-drive", struct{}{}, 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind status = %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts, "/v1/jobs",
		jobRequest(t, store.KindCounters, sweep.Key{Name: "NoSuchWorkload", ConfigFP: cfg.Fingerprint()}, opts.Warmup))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload status = %d, want 404", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts, "/v1/jobs",
		jobRequest(t, store.KindCounters,
			sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: 0xdead, MaxInstrs: opts.Warmup + opts.Instrs},
			opts.Warmup))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fingerprint mismatch status = %d, want 409", resp.StatusCode)
	}

	// An absurd trace length must be refused, not simulated for hours
	// while it pins an admission slot — whether it rides MaxInstrs or the
	// profile's own cap. (Zero-everywhere keys stay legal: the tracer
	// defaults them to a bounded 2M-instruction trace.)
	absurdProfile := wl.Profile
	absurdProfile.MaxInstrs = 1 << 59
	for _, key := range []sweep.Key{
		{Name: wl.Name, Profile: wl.Profile, ConfigFP: cfg.Fingerprint(), MaxInstrs: 1 << 60},
		{Name: wl.Name, Profile: absurdProfile, ConfigFP: cfg.Fingerprint()},
	} {
		resp, _ = postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("absurd counters key %+v status = %d, want 400", key, resp.StatusCode)
		}
	}

	// Cluster keys name a workload exactly, as counters keys do: a
	// case variant is a different key, not an alias to simulate and store
	// a second time.
	for _, name := range []string{"NoSuchWorkload", "grep", "GREP"} {
		resp, _ = postJSON(t, ts, "/v1/jobs",
			jobRequest(t, store.KindCluster, workloads.StatsKey{Workload: name, Slaves: 4, Scale: 0.01}, 0))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown cluster workload %q status = %d, want 404", name, resp.StatusCode)
		}
	}

	for _, key := range []workloads.StatsKey{
		{Workload: "Sort", Slaves: 0, Scale: 0.01},
		{Workload: "Sort", Slaves: 1 << 20, Scale: 0.01},
		{Workload: "Sort", Slaves: 4, Scale: 0},
		{Workload: "Sort", Slaves: 4, Scale: 1e9},
	} {
		resp, _ = postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCluster, key, 0))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("absurd cluster key %+v status = %d, want 400", key, resp.StatusCode)
		}
	}

	resp, _ = postJSON(t, ts, "/v1/jobs", []byte("not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status = %d, want 400", resp.StatusCode)
	}
	// The retired /v1/sweep request shape carries no kind: posted to
	// /v1/jobs it is refused, never run as a zero-key job.
	resp, _ = postJSON(t, ts, "/v1/jobs", []byte(`{"key":{"Name":"Grep"},"warmup":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind-less (old sweep shape) body status = %d, want 400", resp.StatusCode)
	}
}

// TestJobsPersist: a store-backed worker writes both job kinds' results
// into its own store under the requested keys, so the worker's restarts
// are warm too — and a blocking job's response is byte for byte the record
// its store holds: the bytes on disk are the bytes on the wire.
func TestJobsPersist(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep and a cluster experiment")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Store: st, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := core.ByName("Grep")
	if err != nil {
		t.Fatal(err)
	}
	key := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs}
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("counters job status = %d: %s", resp.StatusCode, body)
	}
	assertPersisted(t, st, store.Counters, key, body)

	skey := workloads.StatsKey{Workload: "Grep", Slaves: 4, Scale: opts.Scale, Seed: opts.Seed}
	resp, body = postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCluster, skey, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster job status = %d: %s", resp.StatusCode, body)
	}
	assertPersisted(t, st, store.Cluster, skey, body)
}

// assertPersisted checks that body, a job's response, is a record of kind
// for key and equals, byte for byte, the record st holds at key's address.
func assertPersisted[K comparable, T any](t *testing.T, st *store.Store, kind store.Kind[K, T], key K, body []byte) {
	t.Helper()
	if got, _, err := kind.Decode(body); err != nil || got != key {
		t.Fatalf("%s response decodes to key %+v (err %v), want %+v", kind.Name, got, err, key)
	}
	addr, err := kind.Addr(key)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok, err := st.GetRecord(addr)
	if err != nil || !ok {
		t.Fatalf("worker store has no %s record for the served key (ok=%v err=%v)", kind.Name, ok, err)
	}
	if !bytes.Equal(stored, body) {
		t.Fatalf("stored %s record differs from the served one\nstored: %s\nserved: %s", kind.Name, stored, body)
	}
}

// TestAdmissionControl: a worker with -max-inflight 1 sheds the second
// concurrent job with 429 + Retry-After while the first holds the slot,
// keeps read endpoints unthrottled, frees the slot when the job finishes,
// and counts the shed in /healthz and /metrics.
func TestAdmissionControl(t *testing.T) {
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := core.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}
	key := sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs}
	// The shed probes use a different workload: a same-key request would
	// join the gated in-flight cell instead of shedding (see
	// TestShedOrJoin), and this test is about the 429 path.
	probeWl, err := core.ByName("Grep")
	if err != nil {
		t.Fatal(err)
	}
	probeKey := sweep.Key{Name: probeWl.Name, Profile: probeWl.Profile, ConfigFP: opts.CoreConfig().Fingerprint(), MaxInstrs: opts.Warmup + opts.Instrs}

	// First job: parks on the gated backend Load, holding the only slot.
	// (Raw http in the goroutine: t.Fatal must stay on the test goroutine.)
	firstBody, err := json.Marshal(jobRequest(t, store.KindCounters, key, opts.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(firstBody))
		if err != nil {
			firstDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.JobStats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A second job is shed with the hint.
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, probeKey, opts.Warmup))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated worker answered %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}

	// Read endpoints stay admitted: admission bounds compute, not serving.
	if hresp, _ := get(t, ts, "/healthz", nil); hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", hresp.StatusCode)
	}

	// Release the gate: the first job completes and the slot frees.
	close(gate)
	select {
	case code := <-firstDone:
		if code != http.StatusOK {
			t.Fatalf("gated job finished with %d, want 200", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gated job never finished")
	}
	resp, _ = postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release job answered %d, want 200 (slot must free)", resp.StatusCode)
	}

	// The shed is on the books.
	js := srv.JobStats()
	if js.Shed != 1 || js.MaxInflight != 1 || js.InFlight != 0 {
		t.Fatalf("JobStats = %+v, want 1 shed, bound 1, 0 in flight", js)
	}
	_, hbody := get(t, ts, "/healthz", nil)
	var h struct {
		Jobs serve.JobStats `json:"jobs"`
	}
	if err := json.Unmarshal(hbody, &h); err != nil {
		t.Fatal(err)
	}
	if h.Jobs.Shed != 1 || h.Jobs.MaxInflight != 1 {
		t.Fatalf("healthz jobs block = %+v, want the shed count", h.Jobs)
	}
	_, mbody := get(t, ts, "/metrics", nil)
	for _, want := range []string{
		"dcserved_jobs_shed_total 1",
		"dcserved_jobs_max_inflight 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics lack %q:\n%s", want, mbody)
		}
	}
}
