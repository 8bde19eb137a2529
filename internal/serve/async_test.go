package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/jobs"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
)

// del issues one DELETE and returns the response.
func del(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	return resp, body
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return buf.Bytes()
}

// testCounterKey builds a valid counters key for the named workload.
func testCounterKey(t *testing.T, name string, warmup, instrs int64, fp uint64) sweep.Key {
	t.Helper()
	wl, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Key{Name: wl.Name, Profile: wl.Profile, ConfigFP: fp, MaxInstrs: warmup + instrs}
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal state,
// returning the final snapshot.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, ts, "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %d: %s", resp.StatusCode, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("unreadable snapshot %q: %v", body, err)
		}
		if snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, snap.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncJobLifecycle: an async submission answers 202 with a job id
// immediately, the job walks through ≥3 observable states to done, and its
// result record is byte-identical to the blocking endpoint's answer for
// the same key — the async path changes delivery, not content.
func TestAsyncJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())

	resp, body := postJSON(t, ts, "/v1/jobs?wait=false", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unreadable 202 body %q: %v", body, err)
	}
	if snap.ID == "" || snap.Kind != store.KindCounters {
		t.Fatalf("202 snapshot = %+v, want an id and the counters kind", snap)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+snap.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, snap.ID)
	}

	final := pollJob(t, ts, snap.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job finished %q (error %q), want done", final.State, final.Error)
	}
	distinct := map[jobs.State]bool{}
	for _, tr := range final.History {
		distinct[tr.State] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("history %+v shows %d distinct states, want >= 3", final.History, len(distinct))
	}

	// The result endpoint serves the record; a blocking request for the
	// same key answers the same bytes (it rides the memo).
	rresp, record := get(t, ts, "/v1/jobs/"+snap.ID+"/result", nil)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", rresp.StatusCode, record)
	}
	if _, _, err := store.Counters.Decode(record); err != nil {
		t.Fatalf("result record does not verify: %v", err)
	}
	bresp, blocking := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("blocking request = %d", bresp.StatusCode)
	}
	if !bytes.Equal(record, blocking) {
		t.Fatal("async result bytes differ from the blocking endpoint's")
	}

	// The job is listed.
	_, lbody := get(t, ts, "/v1/jobs", nil)
	if !strings.Contains(string(lbody), snap.ID) {
		t.Fatalf("job list %s lacks job %s", lbody, snap.ID)
	}
}

// TestAsyncActiveBoundHolds: a herd of concurrent async submissions is
// accepted up to the active-job bound (256) and not one past it. The only
// admission slot is held by a job parked on a gated backend, so no
// accepted job can finish while the herd runs and every accepted job stays
// active; a bound checked apart from the insert lets several racing
// submissions past the last free place.
func TestAsyncActiveBoundHolds(t *testing.T) {
	const rounds, clients, perClient, bound = 5, 64, 6, 256
	opts := testOptions()
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())
	req := jobRequest(t, store.KindCounters, key, opts.Warmup)
	req.Async = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for round := range rounds {
		gate := make(chan struct{})
		backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
		srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
		ts := httptest.NewServer(srv.Handler())
		var accepted, shed atomic.Int64
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range perClient {
					resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						accepted.Add(1)
					case http.StatusTooManyRequests:
						shed.Add(1)
					default:
						t.Errorf("async submit = %d", resp.StatusCode)
					}
				}
			}()
		}
		wg.Wait()
		close(gate)
		ts.Close()
		srv.Close()
		if got := accepted.Load(); got != bound {
			t.Fatalf("round %d: %d async jobs accepted (%d shed), want exactly %d", round, got, shed.Load(), bound)
		}
	}
}

// TestAsyncCancelFreesSlotAndStoresNothing: DELETE on a running job latches
// cancelled, releases the admission slot while the simulation is still
// parked, and no partial record reaches the store.
func TestAsyncCancelFreesSlotAndStoresNothing(t *testing.T) {
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate) // let the parked Load goroutine exit after the test
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())

	req := jobRequest(t, store.KindCounters, key, opts.Warmup)
	req.Async = true // the body spelling of ?wait=false
	resp, body := postJSON(t, ts, "/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	// The job takes the only slot and parks on the gated backend.
	deadline := time.Now().Add(10 * time.Second)
	for srv.JobStats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("async job never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	dresp, dbody := del(t, ts, "/v1/jobs/"+snap.ID)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", dresp.StatusCode, dbody)
	}
	var after jobs.Snapshot
	if err := json.Unmarshal(dbody, &after); err != nil {
		t.Fatal(err)
	}
	if after.State != jobs.StateCancelled {
		t.Fatalf("post-DELETE state = %q, want cancelled", after.State)
	}

	// The slot frees with the gate still closed: cancellation, not
	// completion, released it.
	for srv.JobStats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still held after cancel: %+v", srv.JobStats())
		}
		time.Sleep(time.Millisecond)
	}
	if js := srv.JobStats(); js.Cancelled != 1 {
		t.Fatalf("JobStats.Cancelled = %d, want 1", js.Cancelled)
	}
	if _, sims := backend.counts(); sims != 0 {
		t.Fatalf("cancelled job stored %d records, want 0", sims)
	}
	if rresp, _ := get(t, ts, "/v1/jobs/"+snap.ID+"/result", nil); rresp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job = %d, want 410", rresp.StatusCode)
	}

	// A second DELETE reports the already-terminal state without
	// double-counting.
	del(t, ts, "/v1/jobs/"+snap.ID)
	if js := srv.JobStats(); js.Cancelled != 1 {
		t.Fatalf("repeat DELETE double-counted: Cancelled = %d", js.Cancelled)
	}
}

// TestShutdownFailsAsyncJobsWith503: closing the server under a running
// and a queued async job fails both, and each one's result answers what
// the blocking endpoint answers on shutdown — 503 shutting_down, a retry
// elsewhere — not a 500.
func TestShutdownFailsAsyncJobsWith503(t *testing.T) {
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate) // let the parked Load goroutine exit after the test
	fp := opts.CoreConfig().Fingerprint()

	var ids []string
	for _, name := range []string{"Sort", "Grep"} {
		key := testCounterKey(t, name, opts.Warmup, opts.Instrs, fp)
		resp, body := postJSON(t, ts, "/v1/jobs?wait=false", jobRequest(t, store.KindCounters, key, opts.Warmup))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit = %d: %s", resp.StatusCode, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	// The first job holds the only slot, parked on the gated backend; the
	// second waits for the slot.
	deadline := time.Now().Add(10 * time.Second)
	for js := srv.JobStats(); js.InFlight != 1 || js.Queued != 1; js = srv.JobStats() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never reached one running and one queued: %+v", js)
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close()
	for _, id := range ids {
		if final := pollJob(t, ts, id); final.State != jobs.StateFailed {
			t.Fatalf("job %s ended %q after shutdown, want failed", id, final.State)
		}
		resp, body := get(t, ts, "/v1/jobs/"+id+"/result", nil)
		if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, resp, body) != "shutting_down" {
			t.Fatalf("result of a job failed by shutdown = %d %s, want 503 shutting_down", resp.StatusCode, body)
		}
	}
}

// TestShedOrJoin: a saturated worker answers a request for the key it is
// already computing by joining the in-flight simulation — one simulation,
// two identical records, no 429.
func TestShedOrJoin(t *testing.T) {
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())
	body, err := json.Marshal(jobRequest(t, store.KindCounters, key, opts.Warmup))
	if err != nil {
		t.Fatal(err)
	}

	// Two concurrent same-key requests against one slot: the first holds
	// the slot parked on the gate, the second has no slot and joins.
	results := make(chan []byte, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- nil
				return
			}
			data := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("same-key request under saturation = %d (%s), want 200 via join", resp.StatusCode, data)
				results <- nil
				return
			}
			results <- data
		}()
		if i == 0 {
			deadline := time.Now().Add(10 * time.Second)
			for srv.JobStats().InFlight != 1 {
				if time.Now().After(deadline) {
					t.Fatal("first request never occupied the slot")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Let the second request reach the join, then run the simulation.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	a, b := <-results, <-results
	if a == nil || b == nil {
		t.Fatal("a request failed")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("joined request returned different bytes than the simulating one")
	}
	if _, sims := backend.counts(); sims != 1 {
		t.Fatalf("backend stored %d simulations, want exactly 1 (zero duplicates)", sims)
	}
	js := srv.JobStats()
	if js.Joined < 1 {
		t.Fatalf("JobStats.Joined = %d, want >= 1", js.Joined)
	}
	if js.Shed != 0 {
		t.Fatalf("JobStats.Shed = %d, want 0 — the same-key request must join, not shed", js.Shed)
	}
}

// TestAdaptiveRetryAfter: the shed hint grows with queue depth and the
// per-kind service-time estimate instead of always answering 1s, and stays
// clamped to the dispatch layer's 1s..1m window.
func TestAdaptiveRetryAfter(t *testing.T) {
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)
	fp := opts.CoreConfig().Fingerprint()
	slow := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, fp)
	probe := testCounterKey(t, "Grep", opts.Warmup, opts.Instrs, fp)

	// Saturate: one gated blocking job holds the only slot.
	slowBody, err := json.Marshal(jobRequest(t, store.KindCounters, slow, opts.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	go ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(slowBody))
	deadline := time.Now().Add(10 * time.Second)
	for srv.JobStats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("gated job never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	retryAfter := func() int {
		resp, _ := postJSON(t, ts, "/v1/jobs", jobRequest(t, store.KindCounters, probe, opts.Warmup))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("probe = %d, want 429", resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("unreadable Retry-After %q", resp.Header.Get("Retry-After"))
		}
		return secs
	}

	// No service history, depth 1: the old fixed hint.
	if got := retryAfter(); got != 1 {
		t.Fatalf("baseline hint = %d, want 1", got)
	}

	// Queue two async jobs behind the slot: depth 3 at a 1s default
	// estimate → a 3s hint. The hint grew with real saturation.
	for i := 0; i < 2; i++ {
		k := testCounterKey(t, "PageRank", opts.Warmup, opts.Instrs+int64(i+1), fp)
		req := jobRequest(t, store.KindCounters, k, opts.Warmup)
		req.Async = true
		if resp, body := postJSON(t, ts, "/v1/jobs", req); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	for srv.JobStats().Queued != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never built: %+v", srv.JobStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := retryAfter(); got != 3 {
		t.Fatalf("hint at depth 3 = %d, want 3", got)
	}

	// A slower measured service time scales it further; the clamp caps it.
	srv.SetServiceTimeForTest(store.KindCounters, 10)
	if got := retryAfter(); got != 30 {
		t.Fatalf("hint at depth 3 x 10s = %d, want 30", got)
	}
	srv.SetServiceTimeForTest(store.KindCounters, 1000)
	if got := retryAfter(); got != 60 {
		t.Fatalf("clamped hint = %d, want 60", got)
	}
}

// TestJobEventStream: GET /v1/jobs/{id} with Accept: text/event-stream
// replays the job's transitions as SSE and closes after the terminal one.
func TestJobEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())

	resp, body := postJSON(t, ts, "/v1/jobs?wait=false", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	// The stream closes itself at the terminal transition, so a plain read
	// to EOF terminates.
	sresp, stream := get(t, ts, "/v1/jobs/"+snap.ID, map[string]string{"Accept": "text/event-stream"})
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := 0
	var states []jobs.State
	for _, line := range strings.Split(string(stream), "\n") {
		if strings.HasPrefix(line, "event: state") {
			events++
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var tr jobs.Transition
			if err := json.Unmarshal([]byte(data), &tr); err != nil {
				t.Fatalf("unreadable SSE data %q: %v", data, err)
			}
			states = append(states, tr.State)
		}
	}
	if events < 3 || len(states) != events {
		t.Fatalf("stream delivered %d events / %d states:\n%s", events, len(states), stream)
	}
	if states[0] != jobs.StateQueued {
		t.Fatalf("first streamed state = %q, want queued", states[0])
	}
	if last := states[len(states)-1]; !last.Terminal() {
		t.Fatalf("stream ended on non-terminal state %q", last)
	}
}
