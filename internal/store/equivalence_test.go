package store_test

import (
	"context"
	"reflect"
	"testing"

	"dcbench/internal/memtrace"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// equivJobs builds a few small deterministic sweep jobs.
func equivJobs() []sweep.Job {
	jobs := make([]sweep.Job, 3)
	for i := range jobs {
		i := i
		jobs[i] = sweep.Job{
			Name: "equiv-" + string(rune('A'+i)),
			Profile: memtrace.Profile{
				Seed:      uint64(2000 + i),
				MaxInstrs: 30_000,
				CodeKB:    64 + 16*i,
				HeapMB:    4,
			},
			Gen: func(tr *memtrace.Tracer) {
				base := tr.Alloc(1 << 18)
				for {
					for off := uint64(0); off < 1<<18; off += 64 {
						tr.Load(base + off)
						tr.BranchSite(i, off%192 == 0)
					}
				}
			},
		}
	}
	return jobs
}

// TestStoreBackedSweepMatchesStoreless: a store behind the sweep engine is
// invisible in the results — identical counters to a storeless run, cold
// and warm — and a warm engine over the store re-simulates nothing.
func TestStoreBackedSweepMatchesStoreless(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small simulations")
	}
	jobs := equivJobs()
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 5_000

	baseline, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runOn := func() []*uarch.Counters {
		t.Helper()
		e := sweep.NewEngine()
		e.SetMemoBackend(s.Backend(quietLog(t)))
		out, err := e.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if cold := runOn(); !reflect.DeepEqual(cold, baseline) {
		t.Fatal("store-backed sweep diverged from the storeless baseline")
	}
	// Warm pass through a fresh engine (a "restarted process"): every
	// result comes off disk, still byte-for-byte the baseline's.
	if warm := runOn(); !reflect.DeepEqual(warm, baseline) {
		t.Fatal("warm store read diverged from the simulated results")
	}
	st := s.Stats()
	if st.Writes != int64(len(jobs)) {
		t.Fatalf("%d writes, want %d (warm pass must not re-simulate)", st.Writes, len(jobs))
	}
	if st.Hits < int64(len(jobs)) {
		t.Fatalf("%d hits, want >= %d", st.Hits, len(jobs))
	}
}
