package sweep_test

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/memtrace/tracecache"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// sweepConfigs returns n distinct machine configurations — the shape of a
// design-space sweep over one workload (L3 sizing à la Figure 10, plus
// back-end width) at a fixed warmup.
func sweepConfigs(n int) []uarch.Config {
	cfgs := make([]uarch.Config, n)
	for i := range cfgs {
		cfg := uarch.DefaultConfig()
		cfg.Warmup = 10_000
		cfg.L3Size = (3 + 6*i) << 20
		cfg.ROB = 64 + 32*i
		cfgs[i] = cfg
	}
	return cfgs
}

// TestTraceCacheSweepGeneratesOnce is capture-on-second-sight's acceptance
// criterion: sweeping one workload across N = 5 configs with the trace
// cache installed runs its generator twice — live under the first config,
// captured under the second — and replays the capture for the other three,
// with every config's Counters bit-identical to the uncached path.
func TestTraceCacheSweepGeneratesOnce(t *testing.T) {
	const nConfigs = 5
	var gens atomic.Int64
	job := testJobs(1)[0]
	inner := job.Gen
	job.Gen = func(tr *memtrace.Tracer) {
		gens.Add(1)
		inner(tr)
	}
	cfgs := sweepConfigs(nConfigs)

	cached := sweep.NewEngine()
	cached.SetTraceCache(tracecache.New(tracecache.DefaultMaxBytes))
	var got []*uarch.Counters
	for _, cfg := range cfgs {
		out, err := cached.Run(context.Background(), []sweep.Job{job}, cfg, 0, sweep.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out[0])
	}

	if n := gens.Load(); n != 2 {
		t.Fatalf("generator ran %d times across %d configs, want 2 (one live, one capture)", n, nConfigs)
	}
	s, ok := cached.TraceCacheStats()
	if !ok {
		t.Fatal("TraceCacheStats reports no cache installed")
	}
	if s.Bypassed != 1 || s.Captures != 1 || s.Misses != 1 || s.Hits != int64(nConfigs-2) || s.Fallbacks != 0 {
		t.Fatalf("cache stats = %+v, want bypassed=1 captures=1 misses=1 hits=%d fallbacks=0", s, nConfigs-2)
	}

	// The uncached engine re-generates per config; results must match bit
	// for bit anyway.
	uncached := sweep.NewEngine()
	for i, cfg := range cfgs {
		want, err := uncached.Run(context.Background(), []sweep.Job{job}, cfg, 0, sweep.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[0], got[i]) {
			t.Errorf("config %d: cached-engine counters diverge from generated\ncached:   %+v\ngenerate: %+v",
				i, got[i], want[0])
		}
	}
}

// TestTraceCacheRegistryReplayDeterminism sweeps the real 26-workload
// registry at three machine configurations with and without the trace
// cache — so every workload runs live, then captured, then replayed — and
// asserts bit-identical uarch.Counters everywhere: the determinism
// contract of all three stream sources, exercised concurrently (the race
// detector sees the doorkeeper and the shared segment decode under -race).
func TestTraceCacheRegistryReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	jobs := core.RegistryJobs()
	const instrs = 120_000
	cfgs := sweepConfigs(3)
	for i := range cfgs {
		cfgs[i].Warmup = 40_000
	}

	cached := sweep.NewEngine()
	cached.SetTraceCache(tracecache.New(tracecache.DefaultMaxBytes))
	plain := sweep.NewEngine()
	for _, cfg := range cfgs {
		got, err := cached.Run(context.Background(), jobs, cfg, instrs, sweep.RunOptions{Workers: 4, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Run(context.Background(), jobs, cfg, instrs, sweep.RunOptions{Workers: 4, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: cached-engine counters diverge from generated\ncached:   %+v\ngenerate: %+v",
					j.Name, got[i], want[i])
			}
		}
	}
	// A doorkeeper slot shared by two registry streams would show here as
	// extra bypasses; the registry's 26 streams at this length have none.
	n := int64(len(jobs))
	s, _ := cached.TraceCacheStats()
	if s.Bypassed != n || s.Captures != n || s.Hits != n {
		t.Errorf("stats = %+v, want bypassed = captures = hits = %d (first, second, third config)", s, n)
	}
}

// TestTraceCacheErrorSurfaces: a generator that panics fails its job with
// the same error text whether the stream runs live (first sight) or is
// being captured (second sight), and healthy sibling jobs still complete.
func TestTraceCacheErrorSurfaces(t *testing.T) {
	jobs := testJobs(3)
	jobs[1].Name = "exploding"
	jobs[1].Gen = func(tr *memtrace.Tracer) {
		tr.ALU(100)
		panic("boom")
	}
	e := sweep.NewEngine()
	e.SetTraceCache(tracecache.New(tracecache.DefaultMaxBytes))
	var texts []string
	for _, cfg := range sweepConfigs(2) {
		out, err := e.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{Workers: 2})
		if err == nil || !containsAll(err.Error(), "exploding", "boom", "trace generation panicked") {
			t.Fatalf("err = %v, want generator panic attributed to job %q", err, "exploding")
		}
		texts = append(texts, err.Error())
		if out[1] != nil {
			t.Errorf("failed job returned counters")
		}
		for _, i := range []int{0, 2} {
			if out[i] == nil || out[i].Instructions == 0 {
				t.Errorf("job %d did not complete despite sibling failure", i)
			}
		}
	}
	if texts[0] != texts[1] {
		t.Errorf("live and capturing failures read differently:\nlive:    %s\ncapture: %s", texts[0], texts[1])
	}
	if s, _ := e.TraceCacheStats(); s.Bypassed != 3 || s.Captures != 3 {
		t.Errorf("stats = %+v, want 3 live jobs then 3 captures", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
