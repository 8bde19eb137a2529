package sweep_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// TestBudgetBoundsUnitsInFlight: two registry runs at Workers 4 and a
// cluster sweep at 4, all at once, share one 2-slot budget. Counted through
// a wrapping generator and workload, simulations plus cells in flight never
// exceed it, and every counter file and Stats matches a serial run.
func TestBudgetBoundsUnitsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("two registry sweeps and a cluster sweep")
	}
	const slots = 2
	defer sweep.SetBudgetForTest(slots)()

	var inFlight, peak atomic.Int64
	enter := func() {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	leave := func() { inFlight.Add(-1) }

	jobs := core.RegistryJobs()
	counted := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		gen := j.Gen
		j.Gen = func(tr *memtrace.Tracer) {
			enter()
			defer leave()
			gen(tr)
		}
		counted[i] = j
	}
	var cells, countedCells []*workloads.Workload
	for _, w := range workloads.All() {
		switch w.Name {
		case "Sort", "WordCount", "Grep", "K-means":
		default:
			continue
		}
		cells = append(cells, w)
		cw := *w
		cw.Run = func(env *workloads.Env) (*workloads.Stats, error) {
			enter()
			defer leave()
			return w.Run(env)
		}
		countedCells = append(countedCells, &cw)
	}
	if len(cells) != 4 {
		t.Fatalf("found %d of the 4 cluster workloads", len(cells))
	}
	slaves := []int{2, 4}
	const scale, seed = 0.01, 12345

	cfg := uarch.DefaultConfig()
	cfg.Warmup = 10_000
	const instrs = 40_000
	ctx := context.Background()
	var wg sync.WaitGroup
	var runs [2][]*uarch.Counters
	var runErrs [2]error
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], runErrs[i] = sweep.NewEngine().Run(ctx, counted, cfg, instrs, sweep.RunOptions{Workers: 4})
		}()
	}
	var stats [][]*workloads.Stats
	var statsErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, statsErr = workloads.SlaveSweepMemo(ctx, workloads.NewStatsCache(nil), countedCells, slaves, scale, seed, 4)
	}()
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Fatalf("%d simulations and cells ran at once on a %d-slot budget", got, slots)
	}
	t.Logf("peak units in flight: %d of %d slots", peak.Load(), slots)

	serial, err := sweep.NewEngine().Run(ctx, jobs, cfg, instrs, sweep.RunOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if runErrs[i] != nil {
			t.Fatalf("run %d: %v", i, runErrs[i])
		}
		for k := range jobs {
			if !reflect.DeepEqual(runs[i][k], serial[k]) {
				t.Errorf("run %d, %s: counters differ from the serial run", i, jobs[k].Name)
			}
		}
	}
	if statsErr != nil {
		t.Fatal(statsErr)
	}
	serialStats, err := workloads.SlaveSweepMemo(ctx, nil, cells, slaves, scale, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, serialStats) {
		t.Error("cluster Stats under the budget differ from the serial run")
	}
}
