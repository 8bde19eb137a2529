package sim

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestEngineOrdering: wake-ups run in time order whatever order they were
// scheduled in, and the clock ends at the last one.
func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, d := range []float64{3, 1, 2} {
		e.Go(func(p *Process) {
			p.Sleep(d)
			got = append(got, p.Now())
		})
	}
	e.Run()
	if want := []float64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

// TestEngineTieBreakFIFO: wake-ups due at one instant run in the order they
// were scheduled, both for process starts and for sleepers.
func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var started, woken []int
	for i := 0; i < 10; i++ {
		e.Go(func(p *Process) {
			started = append(started, i)
			p.Sleep(5)
			woken = append(woken, i)
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !slices.Equal(started, want) || !slices.Equal(woken, want) {
		t.Fatalf("same-time wake-ups ran out of order: started %v, woken %v", started, woken)
	}
}

// TestEngineAfterNesting: a process started from inside another after a
// sleep starts at that later time, and its own sleeps count from there.
func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Go(func(p *Process) {
		p.Sleep(1)
		e.Go(func(q *Process) {
			times = append(times, q.Now())
			q.Sleep(2)
			times = append(times, q.Now())
		})
	})
	e.Run()
	if !slices.Equal(times, []float64{1, 3}) {
		t.Fatalf("nested process ran at %v, want [1 3]", times)
	}
}

// TestEngineSchedulePastPanics: a wake-up scheduled before the current time
// is a model bug; the panic comes out of Run.
func TestEngineSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e := NewEngine()
	e.Go(func(p *Process) {
		p.Sleep(5)
		e.wake(1, p)
	})
	e.Run()
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var trace []float64
	e.Go(func(p *Process) {
		p.Sleep(1)
		trace = append(trace, p.Now())
		p.Sleep(2.5)
		trace = append(trace, p.Now())
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3.5 {
		t.Fatalf("trace = %v, want [1 3.5]", trace)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go(func(p *Process) {
		p.Sleep(2)
		order = append(order, "a")
	})
	e.Go(func(p *Process) {
		p.Sleep(1)
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestResourceFIFOAndBlocking(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go(func(p *Process) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(1)
			r.Release()
		})
	}
	e.Run()
	if e.Now() != 3 {
		t.Fatalf("serialised makespan = %v, want 3", e.Now())
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	for i := 0; i < 4; i++ {
		e.Go(func(p *Process) {
			r.Acquire(p)
			p.Sleep(1)
			r.Release()
		})
	}
	e.Run()
	if e.Now() != 2 {
		t.Fatalf("4 unit jobs on 2 units took %v, want 2", e.Now())
	}
	if r.inUse != 0 {
		t.Fatalf("resource left in use: %d", r.inUse)
	}
}

func TestPipeSerialisation(t *testing.T) {
	e := NewEngine()
	pipe := NewPipe(e, 100, 0) // 100 B/s
	var done []float64
	for i := 0; i < 2; i++ {
		e.Go(func(p *Process) {
			pipe.Transfer(p, 100) // 1 s of service each
			done = append(done, p.Now())
		})
	}
	e.Run()
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion times = %v, want [1 2]", done)
	}
	if pipe.Ops != 2 || pipe.Bytes != 200 {
		t.Fatalf("counters = %d ops %d bytes, want 2/200", pipe.Ops, pipe.Bytes)
	}
}

func TestPipeLatency(t *testing.T) {
	e := NewEngine()
	pipe := NewPipe(e, 1000, 0.5)
	var end float64
	e.Go(func(p *Process) {
		pipe.Transfer(p, 500)
		end = p.Now()
	})
	e.Run()
	if end != 1.0 { // 0.5 latency + 0.5 transfer
		t.Fatalf("end = %v, want 1.0", end)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(3)
	finished := false
	for i := 1; i <= 3; i++ {
		d := float64(i)
		e.Go(func(p *Process) {
			p.Sleep(d)
			wg.Done(e)
		})
	}
	e.Go(func(p *Process) {
		wg.Wait(p)
		finished = true
		if p.Now() != 3 {
			t.Errorf("wait released at %v, want 3", p.Now())
		}
	})
	e.Run()
	if !finished {
		t.Fatal("waiter never released")
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	r := NewResource(e, 1)
	e.Go(func(p *Process) {
		r.Acquire(p)
		r.Acquire(p) // self-deadlock: never released
	})
	e.Run()
}

// TestProcessPanicReachesRunCaller: a panic inside a process goroutine —
// at its start or after it has blocked and been resumed — comes out of
// Engine.Run on the calling goroutine, where a caller can recover it; left
// on the process goroutine it would kill the program.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	for name, sleeps := range map[string]int{"at start": 0, "after one sleep": 1} {
		e := NewEngine()
		e.Go(func(p *Process) { p.Sleep(10) }) // a bystander parked across the panic
		e.Go(func(p *Process) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(1)
			}
			panic("mapper bug")
		})
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Run()
			return nil
		}()
		if got != "mapper bug" {
			t.Errorf("%s: Run recovered %v, want the process's panic value", name, got)
		}
	}
}

// TestPanicLeavesNoGoroutine: when one process panics, Run unwinds the
// processes parked beside it (four queued on a one-slot resource, one
// holding it) before re-raising, so the failed run leaves no goroutine.
func TestPanicLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	r := NewResource(e, 1)
	for i := 0; i < 5; i++ {
		e.Go(func(p *Process) {
			r.Acquire(p)
			p.Sleep(10)
			r.Release()
		})
	}
	e.Go(func(p *Process) {
		p.Sleep(1)
		panic("mapper bug")
	})
	if got := recoverRun(e); got != "mapper bug" {
		t.Fatalf("Run recovered %v, want the process's panic value", got)
	}
	expectGoroutines(t, base)
}

// TestDeadlockLeavesNoGoroutine: a deadlocked run (three processes on a
// one-slot resource, its holder asking for a second unit) unwinds all three
// before Run reports the deadlock.
func TestDeadlockLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	r := NewResource(e, 1)
	for i := 0; i < 3; i++ {
		e.Go(func(p *Process) {
			r.Acquire(p)
			r.Acquire(p)
		})
	}
	if got, _ := recoverRun(e).(string); !strings.Contains(got, "deadlock: 3 process(es)") {
		t.Fatalf("Run recovered %q, want a deadlock of 3 processes", got)
	}
	expectGoroutines(t, base)
}

func recoverRun(e *Engine) (v any) {
	defer func() { v = recover() }()
	e.Run()
	return nil
}

// expectGoroutines waits up to a second for the goroutine count to fall
// back to base: an unwound goroutine may still be returning when Run does.
func expectGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[99] {
		t.Fatalf("zipf not skewed: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// Rank 0 under s=1 over 1000 ranks should take roughly 1/H(1000) ~ 13%.
	frac := float64(counts[0]) / 100000
	if frac < 0.08 || frac > 0.20 {
		t.Fatalf("zipf rank0 fraction = %v, want ~0.13", frac)
	}
}

// TestZipfTablesSharedAndBounded: samplers of one shape share one CDF and
// still draw independently from their own RNGs; shapes beyond the rank cap
// or the 64-shape cap are built per call and never retained, so
// client-chosen profile sizes cannot grow the table set.
func TestZipfTablesSharedAndBounded(t *testing.T) {
	a, b := NewZipf(NewRNG(1), 777, 1.3), NewZipf(NewRNG(1), 777, 1.3)
	if &a.cdf[0] != &b.cdf[0] {
		t.Error("two samplers of one shape built two tables")
	}
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: same seed over a shared table drew %d and %d", i, x, y)
		}
	}
	big := 1<<16 + 1
	if c, d := NewZipf(NewRNG(1), big, 1.3), NewZipf(NewRNG(1), big, 1.3); &c.cdf[0] == &d.cdf[0] {
		t.Error("a table above the rank cap was retained")
	}
	for n := 1; n <= 200; n++ {
		NewZipf(NewRNG(1), n, 0.7)
	}
	kept := 0
	zipfTables.Range(func(_, _ any) bool { kept++; return true })
	if kept > 64 {
		t.Errorf("%d shapes retained, want at most 64", kept)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
