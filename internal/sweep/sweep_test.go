package sweep_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// testJobs builds small synthetic workloads with distinct profiles.
func testJobs(n int) []sweep.Job {
	jobs := make([]sweep.Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = sweep.Job{
			Name: "job-" + string(rune('A'+i)),
			Profile: memtrace.Profile{
				Seed:      uint64(1000 + i),
				MaxInstrs: 40_000,
				CodeKB:    64 + 32*i,
				HeapMB:    4,
			},
			Gen: func(t *memtrace.Tracer) {
				base := t.Alloc(1 << 20)
				for {
					for off := uint64(0); off < 1<<20; off += 64 {
						t.Load(base + off)
						t.BranchSite(i, off%128 == 0)
					}
				}
			},
		}
	}
	return jobs
}

// TestParallelMatchesSerial is the engine's core guarantee: at a fixed seed
// the fanned-out sweep produces counters bit-identical to one worker.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := testJobs(6)
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 10_000

	serial, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, 0,
		sweep.RunOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, 0,
		sweep.RunOptions{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel counters diverge from serial\nserial:   %+v\nparallel: %+v",
				jobs[i].Name, serial[i], parallel[i])
		}
	}
}

// TestRegistrySerialVsParallel runs the real 26-workload registry serially
// and with 4 workers at the default seed and asserts bit-identical
// uarch.Counters per workload — the CLI's determinism contract at any
// GOMAXPROCS.
func TestRegistrySerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	jobs := core.RegistryJobs()
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 40_000
	const instrs = 120_000

	serial, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, instrs,
		sweep.RunOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, instrs,
		sweep.RunOptions{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: -j 4 counters diverge from serial\nserial:   %+v\nparallel: %+v",
				j.Name, serial[i], parallel[i])
		}
	}
}

// TestMemoization: a second Run with identical inputs must not re-simulate,
// and NoMemo must.
func TestMemoization(t *testing.T) {
	var gens atomic.Int64
	jobs := testJobs(3)
	for i := range jobs {
		inner := jobs[i].Gen
		jobs[i].Gen = func(tr *memtrace.Tracer) {
			gens.Add(1)
			inner(tr)
		}
	}
	cfg := uarch.DefaultConfig()
	eng := sweep.NewEngine()

	first, err := eng.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := gens.Load(); got != 3 {
		t.Fatalf("first run: %d generator invocations, want 3", got)
	}
	second, err := eng.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := gens.Load(); got != 3 {
		t.Errorf("memoized rerun re-simulated: %d generator invocations, want 3", got)
	}
	for i := range jobs {
		if first[i] != second[i] {
			t.Errorf("%s: memoized rerun returned a different counter file", jobs[i].Name)
		}
	}
	if _, err := eng.Run(context.Background(), jobs, cfg, 0, sweep.RunOptions{NoMemo: true}); err != nil {
		t.Fatal(err)
	}
	if got := gens.Load(); got != 6 {
		t.Errorf("NoMemo run did not re-simulate: %d generator invocations, want 6", got)
	}

	// A different trace length is a different key.
	if _, err := eng.Run(context.Background(), jobs, cfg, 20_000, sweep.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := gens.Load(); got != 9 {
		t.Errorf("shorter trace reused the full-length memo entry: %d invocations, want 9", got)
	}
}

// TestCancellation: a cancelled context aborts the sweep with ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sweep.NewEngine().Run(ctx, testJobs(4), uarch.DefaultConfig(), 0, sweep.RunOptions{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelSpyBackend records the context the engine hands to Load — the
// singleflight cell's run context — so a test can assert the simulation
// side observes refcounted cancellation. Stores counts write-throughs.
type cancelSpyBackend struct {
	mu      sync.Mutex
	loadCtx context.Context
	stores  atomic.Int64
}

func (b *cancelSpyBackend) Load(ctx context.Context, _ sweep.Key) (*uarch.Counters, bool) {
	b.mu.Lock()
	b.loadCtx = ctx
	b.mu.Unlock()
	return nil, false
}

func (b *cancelSpyBackend) Store(context.Context, sweep.Key, *uarch.Counters) {
	b.stores.Add(1)
}

// TestCancelMidSimulationStopsCore: cancelling every caller of an
// in-flight simulation cancels the run's own context (observed through the
// backend's Load ctx), stops the core mid-trace, discards the partial
// counters — never cached, never written through — and a later Run
// re-simulates from scratch.
func TestCancelMidSimulationStopsCore(t *testing.T) {
	spy := &cancelSpyBackend{}
	eng := sweep.NewEngine()
	eng.SetMemoBackend(spy)

	var gens atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	job := sweep.Job{
		Name: "long-haul",
		// Big enough that an uncancelled run takes seconds: the quick
		// return below is the cancellation working.
		Profile: memtrace.Profile{Seed: 11, MaxInstrs: 50_000_000, CodeKB: 64, HeapMB: 4},
		Gen: func(tr *memtrace.Tracer) {
			gens.Add(1)
			once.Do(func() { close(started) })
			base := tr.Alloc(1 << 20)
			for {
				for off := uint64(0); off < 1<<20; off += 64 {
					tr.Load(base + off)
				}
			}
		},
	}
	cfg := uarch.DefaultConfig()

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, []sweep.Job{job}, cfg, 0, sweep.RunOptions{Workers: 1})
		runDone <- err
	}()
	<-started
	cancel()
	select {
	case err := <-runDone:
		if err != context.Canceled {
			t.Fatalf("Run err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	// The simulation's own context — the one the backend Load saw — must
	// observe the cancellation once the last caller has left.
	spy.mu.Lock()
	loadCtx := spy.loadCtx
	spy.mu.Unlock()
	if loadCtx == nil {
		t.Fatal("backend Load never ran")
	}
	select {
	case <-loadCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("simulation context never observed the cancellation")
	}
	if got := spy.stores.Load(); got != 0 {
		t.Fatalf("cancelled run wrote %d records through; partial counters must be discarded", got)
	}

	// Nothing was cached: a fresh Run re-simulates and succeeds.
	out, err := eng.Run(context.Background(), []sweep.Job{job}, cfg, 100_000, sweep.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == nil || out[0].Instructions == 0 {
		t.Fatal("post-cancel rerun produced no counters")
	}
	if got := gens.Load(); got != 2 {
		t.Fatalf("generator ran %d times, want 2 (cancelled + fresh)", got)
	}
	if got := spy.stores.Load(); got != 1 {
		t.Fatalf("successful rerun stored %d records, want 1", got)
	}
}

// TestAbandonedGeneratorStops: when a simulation gives its live trace up —
// every caller cancelled, or the core model panicked — the generator
// goroutine stops within a few batches instead of producing the rest of a
// trace nobody reads (/v1/jobs admits traces of 10⁹ instructions: tens of
// seconds of a core, outside admission control), and has exited by the
// time the simulation returns.
func TestAbandonedGeneratorStops(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wantErr string
		// The generator cancels at abandonAt; the core panics on the
		// first instruction.
		abandonAt, slack int64
	}{
		// A cancelled caller reaches the core only once the flight has
		// been left, so the core may read a few batches more.
		{"cancelled", context.Canceled.Error(), 1_000_000, 16 * 8192},
		// The core panics on its first batch; the generator is then at
		// most two queued batches and one being filled ahead of it.
		{"core panic", "core model panicked", 0, 4 * 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := uarch.DefaultConfig()
			abandon := func() { cancel() }
			if tc.name == "core panic" {
				// No issue window: the first instruction indexes an empty
				// ring.
				cfg.IssueWidth = 0
				abandon = func() {}
			}
			var emitted atomic.Int64
			exited := make(chan struct{})
			job := sweep.Job{
				Name:    "abandoned",
				Profile: memtrace.Profile{Seed: 11, MaxInstrs: 100_000_000, CodeKB: 64, HeapMB: 4},
				Gen: func(tr *memtrace.Tracer) {
					defer func() {
						emitted.Store(tr.Emitted())
						close(exited)
					}()
					for abandoned := false; ; {
						tr.ALU(100)
						if !abandoned && tr.Emitted() >= tc.abandonAt {
							abandoned = true
							abandon()
						}
					}
				},
			}
			_, err := sweep.NewEngine().Run(ctx, []sweep.Job{job}, cfg, 0, sweep.RunOptions{Workers: 1})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run err = %v, want %q", err, tc.wantErr)
			}
			// A cancelled caller leaves the flight before the simulation
			// has wound down, so the exit is awaited, not assumed.
			select {
			case <-exited:
			case <-time.After(30 * time.Second):
				t.Fatal("the abandoned generator goroutine is still running")
			}
			// Anything near the trace's 10⁸ is the generator having run on.
			if got := emitted.Load(); got > tc.abandonAt+tc.slack {
				t.Fatalf("generator emitted %d instructions after being abandoned near %d", got, tc.abandonAt)
			}
		})
	}
}

// TestErrorCapture: a panicking generator becomes a per-job error carrying
// the job name and the panic, and the other jobs still produce counters.
func TestErrorCapture(t *testing.T) {
	jobs := testJobs(3)
	jobs[1].Name = "exploding"
	jobs[1].Gen = func(tr *memtrace.Tracer) {
		tr.ALU(100)
		panic("boom")
	}
	out, err := sweep.NewEngine().Run(context.Background(), jobs, uarch.DefaultConfig(), 0,
		sweep.RunOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "exploding: trace generation panicked: boom") {
		t.Fatalf("err = %v, want generator panic attributed to job %q", err, "exploding")
	}
	if out[1] != nil {
		t.Errorf("failed job returned counters")
	}
	for _, i := range []int{0, 2} {
		if out[i] == nil || out[i].Instructions == 0 {
			t.Errorf("job %d did not complete despite sibling failure", i)
		}
	}
}

// TestEach checks ordering-independence and bounded fan-out of the pool
// primitive.
func TestEach(t *testing.T) {
	const n = 100
	seen := make([]int32, n)
	var inFlight, peak atomic.Int32
	err := sweep.Each(context.Background(), 4, n, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		atomic.AddInt32(&seen[i], 1)
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("peak concurrency %d exceeds 4 workers", p)
	}
}
