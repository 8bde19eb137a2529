package sweep

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"dcbench/internal/memtrace"
	"dcbench/internal/memtrace/tracecache"
	"dcbench/internal/uarch"
)

// smallConfig is a machine cheap to Reset, so tests can run thousands of
// jobs: the default 12 MB L3 costs half a millisecond per job to clear.
func smallConfig() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.L2Size = 32 << 10
	cfg.L3Size = 192 << 10
	cfg.Warmup = 16
	return cfg
}

// seedJob is one short stream distinguished by its seed alone — the shape
// of a /v1/jobs client walking seeds over one workload.
func seedJob(seed uint64) Job {
	return Job{
		Name:    "seeded",
		Profile: memtrace.Profile{Seed: seed, MaxInstrs: 128, CodeKB: 8, KernelKB: 8, HeapMB: 1},
		Gen: func(t *memtrace.Tracer) {
			base := t.Alloc(1 << 12)
			for off := uint64(0); ; off = (off + 64) % (1 << 12) {
				t.Load(base + off)
				t.BranchSite(0, off == 0)
			}
		},
	}
}

// TestSingleConfigNeverCaptures: 10 000 distinct-seed jobs under one
// config — dcserved's traffic shape — capture nothing, hold no trace
// bytes, and leave the doorkeeper the size it started at (it is an array:
// Sizeof is its whole footprint).
func TestSingleConfigNeverCaptures(t *testing.T) {
	const n = 10_000
	e := NewEngine()
	e.SetTraceCache(tracecache.New(tracecache.DefaultMaxBytes))
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = seedJob(uint64(i + 1))
	}
	if _, err := e.Run(context.Background(), jobs, smallConfig(), 0, RunOptions{NoMemo: true}); err != nil {
		t.Fatal(err)
	}
	s, _ := e.TraceCacheStats()
	if s.Bypassed != n || s.Captures != 0 || s.Misses != 0 || s.Traces != 0 || s.Bytes != 0 {
		t.Errorf("stats = %+v, want bypassed=%d and nothing captured or resident", s, n)
	}
	if size := unsafe.Sizeof(e.door); size > 128<<10 {
		t.Errorf("doorkeeper occupies %d bytes, want a fixed table of at most 128 KiB", size)
	}
}

// TestDoorkeeperCollisionChangesNoCounters forces two streams into one
// doorkeeper slot and sweeps them alternately across three configs: each
// keeps evicting the other, so neither is ever admitted — more live
// generations, and counters bit-identical to an engine without a cache.
func TestDoorkeeperCollisionChangesNoCounters(t *testing.T) {
	slot := func(j Job) uint64 {
		return streamHash(j.Name, j.Profile.Normalize()) % uint64(len(new(doorkeeper).slots))
	}
	a, b := seedJob(1), seedJob(2)
	for seed := uint64(3); slot(a) != slot(b); seed++ {
		b = seedJob(seed)
	}
	jobs := []Job{a, b}

	cached := NewEngine()
	cached.SetTraceCache(tracecache.New(tracecache.DefaultMaxBytes))
	plain := NewEngine()
	cfg := smallConfig()
	for i := 0; i < 3; i++ {
		cfg.ROB += 16
		got, err := cached.Run(context.Background(), jobs, cfg, 0, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Run(context.Background(), jobs, cfg, 0, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: colliding streams changed counters\ngot:  %+v\nwant: %+v", i, got, want)
		}
	}
	if s, _ := cached.TraceCacheStats(); s.Bypassed != 6 || s.Captures != 0 {
		t.Errorf("stats = %+v, want all 6 jobs bypassed (the slot never sees one stream twice running)", s)
	}
}
