package memtrace

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

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

// TestCloseStopsTheGenerator: Close returns once the generator goroutine has
// exited, which it does at its next batch hand-over rather than at the end
// of a trace nobody will read.
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
		t.Fatal("Close returned while the generator goroutine was still running")
	}
	// Three batches read, two in the channel, one being filled, and the
	// one the generator may have handed over while Close was signalling.
	if ahead := emitted - read; ahead < 0 || ahead > 4*batchSize {
		t.Fatalf("generator emitted %d instructions, %d beyond the %d read: it did not stop within a few batches", emitted, ahead, read)
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

// TestPausedReaderPinsFourBatches: a consumer that stops after its first
// NextBatch leaves the generator parked with at most four 64 KiB batches
// live for that reader — the lent one, two queued, one being filled.
func TestPausedReaderPinsFourBatches(t *testing.T) {
	const (
		batchBytes = 64 << 10
		slack      = 32 << 10 // the reader, the tracer and its samplers
	)
	p := Profile{MaxInstrs: 1 << 40}
	gen := func(tr *Tracer) {
		for {
			tr.ALU(100)
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties the batch pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// A first reader builds the profile's shared Zipf tables.
	warm := NewReader(p, gen)
	warm.NextBatch()
	warm.Close()

	before := live()
	r := NewReader(p, gen)
	defer r.Close()
	if len(r.NextBatch()) == 0 {
		t.Fatal("no first batch")
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.ch) < cap(r.ch) {
		if time.Now().After(deadline) {
			t.Fatal("the generator never filled its queue")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // and the batch after the queue
	pinned := live() - before
	runtime.KeepAlive(r)
	if pinned > 4*batchBytes+slack {
		t.Fatalf("a paused reader pins %d KiB, want at most 4 batches of 64 KiB (+%d KiB slack)", pinned>>10, slack>>10)
	}
}
