package memtrace

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dcbench/internal/sim"
)

// FuzzThreshold pins the identity the kernel's integer coin flips rest on:
// for any probability and any generator state, Float64() < p exactly when
// Uint64()>>11 < threshold(p) — on the state's own draw and on the draws
// either side of the threshold, where an off-by-one would hide from any
// sampled stream.
func FuzzThreshold(f *testing.F) {
	for _, p := range []float64{0, 1, -0.25, 1.5, 0.92, 0.35 + 0.05, 0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Nextafter(1, 0), math.Nextafter(1, 2), math.SmallestNonzeroFloat64, 0x1p-53, 0x1p-53 + 0x1p-105, 1 - 0x1p-53} {
		f.Add(p, uint64(1))
		f.Add(p, uint64(0x9E3779B97F4A7C15))
	}
	f.Fuzz(func(t *testing.T, p float64, state uint64) {
		T := threshold(p)
		if T > 1<<53 {
			t.Fatalf("threshold(%v) = %d, above 2^53", p, T)
		}
		a, b := sim.NewRNG(state), sim.NewRNG(state)
		k := b.Uint64() >> 11
		if want, got := a.Float64() < p, k < T; got != want {
			t.Fatalf("p=%v state=%#x: Float64() < p is %v, %d < %d is %v", p, state, want, k, T, got)
		}
		for _, k := range []uint64{k, 0, T - 1, T, T + 1, 1<<53 - 1} {
			if k >= 1<<53 {
				continue // not a draw
			}
			if want, got := float64(k)/(1<<53) < p, k < T; got != want {
				t.Fatalf("p=%v: draw %d/2^53 < p is %v, %d < %d is %v", p, k, want, k, T, got)
			}
			if (below(k, T) == 1) != (k < T) || below(k, T) > 1 {
				t.Fatalf("below(%d, %d) = %d", k, T, below(k, T))
			}
		}
	})
}

// TestBatchesCarryExactlyTheTrace: through NextBatch — where a fast consumer
// sees each batch exactly as sent — full batches are batchSize long and the
// last one holds what is left, never a stale full-length slice, whether the
// trace ends at the cap, on a batch boundary, or because the adapter returns.
func TestBatchesCarryExactlyTheTrace(t *testing.T) {
	endless := func(tr *Tracer) {
		for {
			tr.ALU(100)
		}
	}
	for _, tc := range []struct {
		name string
		max  int64
		gen  func(*Tracer)
		want []int
	}{
		{"one instruction", 1, endless, []int{1}},
		{"short of a batch", 100, endless, []int{100}},
		{"one batch", batchSize, endless, []int{batchSize}},
		{"batches and a tail", 2*batchSize + 100, endless, []int{batchSize, batchSize, 100}},
		{"whole batches", 3 * batchSize, endless, []int{batchSize, batchSize, batchSize}},
		{"adapter returns mid-batch", 1 << 20, func(tr *Tracer) {
			for tr.Emitted() < batchSize+500 {
				tr.BranchSite(1, true) // one instruction per call, no code-walk jumps
			}
		}, []int{batchSize, 500}},
		{"adapter returns on a boundary", 1 << 20, func(tr *Tracer) {
			for tr.Emitted() < 2*batchSize {
				tr.BranchSite(1, true)
			}
		}, []int{batchSize, batchSize}},
		{"adapter emits nothing", 1 << 20, func(*Tracer) {}, nil},
	} {
		r := NewReader(Profile{MaxInstrs: tc.max, BlockLen: 1 << 30}, tc.gen)
		var got []int
		for b := r.NextBatch(); len(b) > 0; b = r.NextBatch() {
			got = append(got, len(b))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: batch lengths %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCloseStopsTheGenerator: Close returns once the generator has unwound,
// which it does at the hand-over it is suspended in rather than at the end
// of a trace nobody will read. A coroutine never runs ahead of its reader,
// so it has emitted exactly what was read.
func TestCloseStopsTheGenerator(t *testing.T) {
	var emitted int64
	exited := make(chan struct{})
	r := NewReader(Profile{MaxInstrs: 100_000_000}, func(tr *Tracer) {
		defer func() {
			emitted = tr.Emitted()
			close(exited)
		}()
		for {
			tr.ALU(100)
		}
	})
	var read int64
	for i := 0; i < 3; i++ {
		read += int64(len(r.NextBatch()))
	}
	r.Close()
	select {
	case <-exited:
	default:
		t.Fatal("Close returned while the generator was still running")
	}
	if emitted != read {
		t.Fatalf("generator emitted %d instructions, want exactly the %d read", emitted, read)
	}
	if n := r.Read(make([]Inst, 8)); n != 0 || len(r.NextBatch()) != 0 {
		t.Fatal("a closed reader produced instructions")
	}
	r.Close() // a second Close is a no-op
}

// TestCloseAfterTheEnd: closing a reader whose trace has ended — normally or
// with a generator panic already delivered — does nothing.
func TestCloseAfterTheEnd(t *testing.T) {
	r := NewReader(Profile{MaxInstrs: 1000}, func(tr *Tracer) {
		for {
			tr.ALU(10)
		}
	})
	if n := len(Collect(r, 2000)); n != 1000 {
		t.Fatalf("trace length = %d, want 1000", n)
	}
	r.Close()

	// A generator that blows up while the reader is closing is dropped with
	// the rest of the trace, not re-raised in a reader that has let go.
	r = NewReader(Profile{MaxInstrs: 1 << 30}, func(tr *Tracer) {
		defer func() {
			recover()
			panic("adapter bug on the way out")
		}()
		for {
			tr.ALU(10)
		}
	})
	r.NextBatch()
	r.Close()
	if n := r.Read(make([]Inst, 8)); n != 0 {
		t.Fatal("a closed reader produced instructions")
	}
}

// TestPausedReaderPinsOneBatch: a consumer that stops after its first
// NextBatch leaves the generator suspended with one 64 KiB batch live for
// that reader — the lent one, which the generator refills in place. Several
// readers are paused at once, so that a stray object the collector frees
// meanwhile cannot hide a reader's surplus.
func TestPausedReaderPinsOneBatch(t *testing.T) {
	const (
		readers    = 4
		batchBytes = 64 << 10
		slack      = 32 << 10 // the reader, the tracer and its samplers
	)
	p := Profile{MaxInstrs: 1 << 40}
	gen := func(tr *Tracer) {
		for {
			tr.ALU(100)
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// A first reader builds the profile's shared Zipf tables.
	warm := NewReader(p, gen)
	warm.NextBatch()
	warm.Close()

	before := live()
	rs := make([]*LiveReader, readers)
	for i := range rs {
		rs[i] = NewReader(p, gen)
		defer rs[i].Close()
		if len(rs[i].NextBatch()) == 0 {
			t.Fatal("no first batch")
		}
	}
	pinned := (live() - before) / readers
	runtime.KeepAlive(rs)
	if pinned > batchBytes+slack {
		t.Fatalf("a paused reader pins %d KiB, want at most one 64 KiB batch (+%d KiB slack)", pinned>>10, slack>>10)
	}
}

// TestNoGoroutineOutlivesTheGenerator: the generator runs on the reading
// goroutine, so once a trace has ended — read to its end, closed mid-trace
// or blown up — the goroutine count is back where it was, with no waiting.
// (It may be lower: the previous test's goroutine can still be exiting.)
func TestNoGoroutineOutlivesTheGenerator(t *testing.T) {
	endless := func(tr *Tracer) {
		for {
			tr.ALU(100)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"read to the end", func() {
			Collect(NewReader(Profile{MaxInstrs: 3*batchSize + 7}, endless), 4*batchSize)
		}},
		{"closed mid-trace", func() {
			r := NewReader(Profile{MaxInstrs: 1 << 40}, endless)
			r.NextBatch()
			r.NextBatch()
			r.Close()
		}},
		{"generator panic", func() {
			r := NewReader(Profile{MaxInstrs: 1 << 40}, func(tr *Tracer) {
				tr.ALU(3 * batchSize)
				panic("adapter bug")
			})
			defer func() {
				if _, ok := recover().(TracePanic); !ok {
					t.Error("the generator panic did not reach the reader as a TracePanic")
				}
			}()
			for len(r.NextBatch()) > 0 {
			}
		}},
	} {
		before := runtime.NumGoroutine()
		tc.run()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the trace ended, %d before", tc.name, after, before)
		}
	}
}
