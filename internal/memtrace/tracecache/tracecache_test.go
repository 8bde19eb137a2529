package tracecache

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dcbench/internal/memtrace"
)

// testGen is a generator that exercises every field the encoding must
// round-trip: loads, stores, per-site branches, FPU mix, kernel-mode
// syscall excursions, framework bursts (cold-code branches with targets)
// and GC sweeps.
func testGen(t *memtrace.Tracer) {
	base := t.Alloc(1 << 20)
	for {
		for off := uint64(0); off < 1<<18; off += 64 {
			t.Load(base + off)
			if off%512 == 0 {
				t.Store(base + off)
			}
			t.BranchSite(int(off>>6)%7, off%192 == 0)
		}
		t.Syscall(400, 4096)
	}
}

func testProfile(maxInstrs int64) memtrace.Profile {
	return memtrace.Profile{
		Seed:            42,
		MaxInstrs:       maxInstrs,
		CodeKB:          128,
		HotCodeKB:       16,
		ColdJumpP:       0.1,
		FrameworkEvery:  3000,
		FrameworkInstrs: 200,
		GCEvery:         20_000,
		GCInstrs:        500,
		HeapMB:          4,
		FPUShare:        0.2,
	}
}

// collectLive drains a fresh live generator stream for p.
func collectLive(p memtrace.Profile, maxInstrs int64) []memtrace.Inst {
	return memtrace.Collect(memtrace.NewReader(p, testGen), int(maxInstrs)+16)
}

// TestRoundTrip: a replayed trace is bit-identical to the live stream,
// instruction by instruction, and the cache counts one capture plus hits.
func TestRoundTrip(t *testing.T) {
	const n = 50_000
	p := testProfile(n)
	live := collectLive(p, n)
	if int64(len(live)) != n {
		t.Fatalf("live trace length = %d, want %d", len(live), n)
	}

	c := New(DefaultMaxBytes)
	r, replay, err := c.Reader(context.Background(), "w", p, testGen)
	if err != nil {
		t.Fatal(err)
	}
	if !replay {
		t.Fatal("first Reader call did not capture+replay")
	}
	got := memtrace.Collect(r, n+16)
	if !reflect.DeepEqual(live, got) {
		for i := range live {
			if live[i] != got[i] {
				t.Fatalf("replay diverges at instruction %d:\nlive:   %+v\nreplay: %+v", i, live[i], got[i])
			}
		}
		t.Fatalf("replay length %d != live length %d", len(got), len(live))
	}

	// Second reader: pure LRU hit, no capture.
	r2, replay, err := c.Reader(context.Background(), "w", p, testGen)
	if err != nil || !replay {
		t.Fatalf("second Reader: replay=%v err=%v", replay, err)
	}
	if got2 := memtrace.Collect(r2, n+16); !reflect.DeepEqual(live, got2) {
		t.Fatal("second replay diverges")
	}
	s := c.Stats()
	if s.Captures != 1 || s.Hits != 1 || s.Misses != 1 || s.Traces != 1 || s.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want captures=1 hits=1 misses=1 traces=1 fallbacks=0", s)
	}
	if s.Bytes <= 0 || s.Bytes >= n*8 {
		t.Fatalf("encoded bytes = %d for %d instrs; expected compact (<8 B/instr) and non-zero", s.Bytes, n)
	}
}

// TestMultiSegmentSmallReads: traces longer than one segment replay
// correctly across segment boundaries, including under adversarially
// small and uneven read buffer sizes.
func TestMultiSegmentSmallReads(t *testing.T) {
	const n = 3*segInstrs + 1234 // four segments, last one partial
	p := testProfile(n)
	live := collectLive(p, n)

	tr, err := capture(p, testGen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(tr.segs))
	}
	if tr.length() != n {
		t.Fatalf("trace length = %d, want %d", tr.length(), n)
	}

	r := tr.newReader()
	var got []memtrace.Inst
	sizes := []int{1, 3, 7, 1000, segInstrs} // straddle boundaries every way
	for i := 0; ; i++ {
		buf := make([]memtrace.Inst, sizes[i%len(sizes)])
		m := r.Read(buf)
		if m == 0 {
			break
		}
		got = append(got, buf[:m]...)
	}
	if !reflect.DeepEqual(live, got) {
		t.Fatal("multi-segment small-buffer replay diverges from live stream")
	}
}

// TestBudgetFallback: a trace that would exceed the byte budget falls back
// to live generation — counted, cache bytes unchanged — and later requests
// for the same key skip the doomed capture entirely.
func TestBudgetFallback(t *testing.T) {
	const n = 40_000
	p := testProfile(n)
	live := collectLive(p, n)

	c := New(1024) // far below the ~4 B/instr encoding
	r, replay, err := c.Reader(context.Background(), "w", p, testGen)
	if err != nil {
		t.Fatal(err)
	}
	if replay {
		t.Fatal("over-budget trace claimed to replay")
	}
	if got := memtrace.Collect(r, n+16); !reflect.DeepEqual(live, got) {
		t.Fatal("fallback stream diverges from plain live stream")
	}
	s := c.Stats()
	if s.Fallbacks != 1 || s.Captures != 1 || s.Traces != 0 || s.Bytes != 0 {
		t.Fatalf("stats after fallback = %+v, want fallbacks=1 captures=1 traces=0 bytes=0", s)
	}

	// The key is remembered as uncacheable: no second capture.
	if _, replay, err = c.Reader(context.Background(), "w", p, testGen); err != nil || replay {
		t.Fatalf("second Reader: replay=%v err=%v", replay, err)
	}
	s = c.Stats()
	if s.Fallbacks != 2 || s.Captures != 1 || s.Bytes != 0 {
		t.Fatalf("stats after second fallback = %+v, want fallbacks=2 captures=1 bytes=0", s)
	}
}

// TestEviction: inserting past the budget evicts the least-recently-used
// trace and keeps the byte count within budget.
func TestEviction(t *testing.T) {
	const n = 20_000
	pA := testProfile(n)
	pB := testProfile(n)
	pB.Seed = 7

	tA, err := capture(pA.Normalize(), testGen, 0)
	if err != nil {
		t.Fatal(err)
	}
	tB, err := capture(pB.Normalize(), testGen, 0)
	if err != nil {
		t.Fatal(err)
	}

	c := New(tA.size() + tB.size() - 1) // each fits; both together do not
	if _, _, err := c.Reader(context.Background(), "a", pA, testGen); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reader(context.Background(), "b", pB, testGen); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Traces != 1 || s.Evictions != 1 || s.Bytes != tB.size() {
		t.Fatalf("stats = %+v, want traces=1 evictions=1 bytes=%d", s, tB.size())
	}

	// The survivor is B; A re-captures on its next request.
	if _, replay, err := c.Reader(context.Background(), "b", pB, testGen); err != nil || !replay {
		t.Fatalf("evicting insert displaced the wrong entry: replay=%v err=%v", replay, err)
	}
	if got := c.Stats(); got.Captures != 2 || got.Hits != 1 {
		t.Fatalf("stats = %+v, want captures=2 hits=1", got)
	}
}

// TestCapturePanic: a generator panic during capture surfaces as an error
// (matching the live path's TracePanic semantics) and is not cached — the
// next request attempts a fresh capture.
func TestCapturePanic(t *testing.T) {
	p := memtrace.Profile{Seed: 1, MaxInstrs: 10_000}
	boom := func(tr *memtrace.Tracer) {
		tr.ALU(100)
		panic("boom")
	}
	c := New(DefaultMaxBytes)
	if _, _, err := c.Reader(context.Background(), "bad", p, boom); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want generator panic", err)
	}
	if _, _, err := c.Reader(context.Background(), "bad", p, boom); err == nil {
		t.Fatal("second request silently succeeded")
	}
	if s := c.Stats(); s.Captures != 2 || s.Traces != 0 {
		t.Fatalf("stats = %+v, want captures=2 traces=0 (errors never cached)", s)
	}
}

// TestUnencodable: instructions outside the format's envelope (never
// emitted by the Tracer, but possible from hand-built readers) are
// rejected by the encoder rather than silently corrupted.
func TestUnencodable(t *testing.T) {
	cases := []memtrace.Inst{
		{Op: memtrace.Op(9)},                  // op beyond 3 bits
		{Op: memtrace.OpALU, NSrc: 4},         // nsrc beyond 2 bits
		{Op: memtrace.OpALU, Addr: 0x1000},    // address on a non-memory op
		{Op: memtrace.OpLoad, Target: 0x1000}, // target on a non-branch
	}
	for i, in := range cases {
		e := &encoder{}
		if err := e.add(&in); err != errUnencodable {
			t.Errorf("case %d (%+v): err = %v, want errUnencodable", i, in, err)
		}
	}
}

// TestConcurrentSingleflight: many goroutines requesting one key share a
// single capture and all replay identical streams.
func TestConcurrentSingleflight(t *testing.T) {
	const n = 30_000
	p := testProfile(n)
	live := collectLive(p, n)
	c := New(DefaultMaxBytes)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	streams := make([][]memtrace.Inst, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, replay, err := c.Reader(context.Background(), "w", p, testGen)
			if err != nil {
				errs[i] = err
				return
			}
			if !replay {
				t.Errorf("worker %d: fell back to live generation", i)
				return
			}
			streams[i] = memtrace.Collect(r, n+16)
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(live, streams[i]) {
			t.Fatalf("worker %d: replay diverges from live stream", i)
		}
	}
	if s := c.Stats(); s.Captures != 1 {
		t.Fatalf("captures = %d, want 1 (singleflight)", s.Captures)
	}
}

// TestSingleflightStress pins the miss → flight window: a caller that
// missed just before another caller's capture was inserted (and that
// capture's flight cell released) must find the entry when its own flight
// function runs, not capture a second time. Short traces and many callers
// make the window wide; every round uses a fresh cache.
func TestSingleflightStress(t *testing.T) {
	const n = 2_000
	p := testProfile(n)
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		c := New(DefaultMaxBytes)
		const workers = 64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, replay, err := c.Reader(context.Background(), "w", p, testGen); err != nil || !replay {
					t.Errorf("round %d: replay = %v, err = %v", round, replay, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if s := c.Stats(); s.Captures != 1 {
			t.Fatalf("round %d: captures = %d, want 1", round, s.Captures)
		}
	}
}
