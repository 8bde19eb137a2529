package uarch

import (
	"reflect"
	"testing"

	"dcbench/internal/memtrace"
	"dcbench/internal/uarch/bpred"
)

// resetTrace is a trace with enough variety to dirty every core structure:
// loads, stores, FPU ops, biased and data-dependent branches, syscalls, and
// a footprint past the L1/L2.
func resetTrace(seed uint64) (memtrace.Profile, func(*memtrace.Tracer)) {
	p := memtrace.Profile{Seed: seed, MaxInstrs: 150_000, CodeKB: 256, HotCodeKB: 16,
		HeapMB: 8, FPUShare: 0.1, ColdJumpP: 0.1}
	gen := func(t *memtrace.Tracer) {
		base := t.Alloc(6 << 20)
		var i uint64
		for {
			t.Load(base + (i*64)%(6<<20))
			if i%7 == 0 {
				t.Store(base + (i*192)%(6<<20))
			}
			t.BranchSite(3, i%5 != 0)
			if i%500 == 0 {
				t.Syscall(300, 4096)
			}
			i++
		}
	}
	return p, gen
}

// runFresh characterizes the trace on a brand-new core.
func runFresh(cfg Config, seed uint64) Counters {
	p, gen := resetTrace(seed)
	return *NewCore(cfg).Run(memtrace.NewReader(p, gen))
}

// TestResetLeavesNoState is the pooled-core contract: running trace B, then
// Reset, then trace A must give exactly the counters of trace A on a fresh
// core — no cache lines, TLB entries, predictor history or pipeline state
// may survive Reset.
func TestResetLeavesNoState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	want := runFresh(cfg, 11)

	c := NewCore(cfg)
	pDirty, genDirty := resetTrace(99) // different seed: different trace
	c.Run(memtrace.NewReader(pDirty, genDirty))
	c.Reset(cfg)
	p, gen := resetTrace(11)
	got := *c.Run(memtrace.NewReader(p, gen))

	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset core diverges from fresh core\nfresh: %+v\nreset: %+v", want, got)
	}
}

// TestResetAcrossGeometryChange exercises the rebuild path: Reset into a
// different cache geometry must also match a fresh core of that geometry.
func TestResetAcrossGeometryChange(t *testing.T) {
	small := DefaultConfig()
	small.L3Size = 3 << 20
	small.Warmup = 10_000
	want := runFresh(small, 7)

	big := DefaultConfig()
	c := NewCore(big)
	pDirty, genDirty := resetTrace(42)
	c.Run(memtrace.NewReader(pDirty, genDirty))
	c.Reset(small)
	p, gen := resetTrace(7)
	got := *c.Run(memtrace.NewReader(p, gen))

	if !reflect.DeepEqual(got, want) {
		t.Errorf("geometry-change reset diverges from fresh core\nfresh: %+v\nreset: %+v", want, got)
	}
}

// TestResetRepeatedReuse recycles one core many times, as the sweep pool
// does, and demands every run match the first.
func TestResetRepeatedReuse(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCore(cfg)
	p, gen := resetTrace(5)
	p.MaxInstrs = 60_000
	first := *c.Run(memtrace.NewReader(p, gen))
	for i := 0; i < 3; i++ {
		c.Reset(cfg)
		got := *c.Run(memtrace.NewReader(p, gen))
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("reuse %d diverges from first run\nfirst: %+v\ngot:   %+v", i, first, got)
		}
	}
}

// TestResetExplicitPredictor: Reset to a non-default predictor kind must
// clear the tournament's learned state and switch its kind.
func TestResetExplicitPredictor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = bpred.KindBimodal
	want := runFresh(cfg, 13)

	dirty := DefaultConfig() // default tournament
	c := NewCore(dirty)
	pDirty, genDirty := resetTrace(21)
	c.Run(memtrace.NewReader(pDirty, genDirty))

	reuse := DefaultConfig()
	reuse.Predictor = bpred.KindBimodal
	c.Reset(reuse)
	p, gen := resetTrace(13)
	got := *c.Run(memtrace.NewReader(p, gen))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bimodal-kind reset diverges from fresh core\nfresh: %+v\nreset: %+v", want, got)
	}
}
