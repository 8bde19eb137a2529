package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"dcbench/internal/jobs"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// holdBudget takes every free slot of the process's compute budget and
// returns how many it holds.
func holdBudget(t *testing.T) int {
	t.Helper()
	held := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := sweep.Acquire(ctx)
		cancel()
		if err != nil {
			return held
		}
		held++
	}
}

// TestQueuedJobWaitsForABudgetSlot: with the compute budget down to one
// slot and that slot held by a long job, an async job that has passed
// admission reads admitted — it neither simulates nor reads simulating —
// and DELETE cancels it in that state. Then a cell that panics frees its
// slot, so the next job runs.
func TestQueuedJobWaitsForABudgetSlot(t *testing.T) {
	held := holdBudget(t)
	if held < 1 {
		t.Fatal("no budget slot was free")
	}
	// The test keeps held-1 slots for its whole length, leaving a budget of
	// one; the last slot it holds stands in for the long job.
	defer func() {
		for ; held > 0; held-- {
			sweep.Release()
		}
	}()

	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fp := opts.CoreConfig().Fingerprint()

	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, fp)
	resp, body := postJSON(t, ts, "/v1/jobs?wait=false", jobRequest(t, store.KindCounters, key, opts.Warmup))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for snap.State != jobs.StateAdmitted {
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job reads %q, want admitted while it waits for the budget", snap.State)
		}
		time.Sleep(time.Millisecond)
		snap = jobSnapshot(t, ts, snap.ID)
	}
	time.Sleep(100 * time.Millisecond)
	if snap = jobSnapshot(t, ts, snap.ID); snap.State != jobs.StateAdmitted {
		t.Fatalf("job moved to %q with no budget slot free, want admitted", snap.State)
	}

	dresp, dbody := del(t, ts, "/v1/jobs/"+snap.ID)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", dresp.StatusCode, dbody)
	}
	final := pollJob(t, ts, snap.ID)
	if final.State != jobs.StateCancelled {
		t.Fatalf("cancelled job ended %q", final.State)
	}
	if i := slices.IndexFunc(final.History, func(tr jobs.Transition) bool { return tr.State == jobs.StateSimulating }); i >= 0 {
		t.Fatalf("a job that never got a slot read simulating: %+v", final.History)
	}

	// The long job finishes; a panicking cell takes the one slot and must
	// give it back.
	sweep.Release()
	held--
	cell := workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: opts.Scale, Seed: opts.Seed + 1}
	if err := srv.ClusterCellForTest(context.Background(), cell, func(context.Context) (*workloads.Stats, error) {
		panic("injected cell failure")
	}); err == nil {
		t.Fatal("a panicking cell reported success")
	}

	next := testCounterKey(t, "Grep", opts.Warmup, opts.Instrs, fp)
	resp, body = postJSON(t, ts, "/v1/jobs?wait=false", jobRequest(t, store.KindCounters, next, opts.Warmup))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts, snap.ID); final.State != jobs.StateDone {
		t.Fatalf("the job after a panicking cell ended %q (%s), want done", final.State, final.Error)
	}
}

// jobSnapshot reads one job's current snapshot.
func jobSnapshot(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	resp, body := get(t, ts, "/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job = %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unreadable snapshot %q: %v", body, err)
	}
	return snap
}
