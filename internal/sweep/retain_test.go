package sweep_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/memo"
	"dcbench/internal/memtrace"
	"dcbench/internal/obs"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// countGens wraps every job's generator so simulations can be counted.
func countGens(jobs []sweep.Job, n *atomic.Int64) []sweep.Job {
	for i := range jobs {
		inner := jobs[i].Gen
		jobs[i].Gen = func(tr *memtrace.Tracer) {
			n.Add(1)
			inner(tr)
		}
	}
	return jobs
}

// TestTracedRunReleasesTrace: after a traced Run returns, the engine keeps
// the counters but not the request that computed them — the run's
// *obs.Trace, with every span it collected, is collectable while the
// engine still serves the key from memory.
func TestTracedRunReleasesTrace(t *testing.T) {
	var sims atomic.Int64
	jobs := countGens(testJobs(2), &sims)
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 10_000
	e := sweep.NewEngine()

	done := make(chan struct{})
	func() {
		tr := obs.NewRecorder(4).StartTrace("run", "")
		runtime.SetFinalizer(tr, func(*obs.Trace) { close(done) })
		if _, err := e.Run(obs.With(context.Background(), tr), jobs, cfg, 0, sweep.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
	}()
	collected := false
	for i := 0; i < 50 && !collected; i++ {
		runtime.GC()
		select {
		case <-done:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("the engine still pins the trace of a run that has returned")
	}
	if _, err := e.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int64(len(jobs)) {
		t.Fatalf("%d simulations for %d keys: the rerun missed the memo", n, len(jobs))
	}
}

// TestEvictedKeyLoadsFromBackend: a key pushed out of the engine's
// retained set by memo.MaxRetained newer keys costs one backend Load on
// its next Run — and no simulation — and comes back unchanged.
func TestEvictedKeyLoadsFromBackend(t *testing.T) {
	var sims atomic.Int64
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 10_000
	b := newMemBackend()
	e := sweep.NewEngine()
	e.SetMemoBackend(b)

	first := countGens(testJobs(1), &sims)
	want, err := e.Run(context.Background(), first, cfg, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// MaxRetained newer keys, every one a backend hit.
	fill := make([]sweep.Job, memo.MaxRetained)
	for i := range fill {
		fill[i] = first[0]
		fill[i].Name = fmt.Sprintf("fill-%d", i)
		b.m[sweep.Key{Name: fill[i].Name, Profile: fill[i].Profile, ConfigFP: cfg.Fingerprint()}] = &uarch.Counters{}
	}
	if _, err := e.Run(context.Background(), fill, cfg, 0, sweep.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	key := sweep.Key{Name: first[0].Name, Profile: first[0].Profile, ConfigFP: cfg.Fingerprint()}
	if _, _, ok := e.Join(context.Background(), key); ok {
		t.Fatalf("%d newer keys did not evict the first", len(fill))
	}

	hits, _, stores := b.counts()
	got, err := e.Run(context.Background(), first, cfg, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, _, s := b.counts()
	if h-hits != 1 || s != stores || sims.Load() != 1 {
		t.Fatalf("evicted key cost %d loads, %d stores and %d simulations in all; want 1 load, 0 stores, still 1 simulation",
			h-hits, s-stores, sims.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the reloaded counters differ from the simulated ones")
	}
}
