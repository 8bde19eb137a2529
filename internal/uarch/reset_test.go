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

// TestResetLeavesNoState is the recycled-core contract: running trace B at
// one config, then Reset to a config of the same geometry, then trace A must
// give exactly the counters of trace A on a fresh core of the second config
// — no cache lines, TLB entries, predictor history, pipeline state or
// config value may survive Reset. A sweep engine's one free list serves
// every config, so a Reset across configs is the normal path.
func TestResetLeavesNoState(t *testing.T) {
	base := DefaultConfig()
	base.Warmup = 20_000
	with := func(f func(*Config)) Config {
		cfg := base
		f(&cfg)
		return cfg
	}
	bimodal := with(func(c *Config) { c.Predictor = bpred.KindBimodal })
	static := with(func(c *Config) { c.Predictor = bpred.KindStatic })
	cases := []struct {
		name         string
		dirty, reuse Config
	}{
		{"same config", base, base},
		{"warmup", base, with(func(c *Config) { c.Warmup = 5_000 })},
		{"warmup from zero", with(func(c *Config) { c.Warmup = 0 }), base},
		{"tournament to bimodal", base, bimodal},
		{"bimodal to static", bimodal, static},
		{"static to tournament", static, base},
		{"MemLat", base, with(func(c *Config) { c.MemLat = 250 })},
		{"WalkLat", base, with(func(c *Config) { c.WalkLat = 40 })},
		{"TLBL2Lat", with(func(c *Config) { c.TLBL2Lat = 20 }), base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runFresh(tc.reuse, 11)
			if tc.dirty != tc.reuse && reflect.DeepEqual(runFresh(tc.dirty, 11), want) {
				t.Fatal("the config change does not show in the counters; the case proves nothing")
			}
			c := NewCore(tc.dirty)
			pDirty, genDirty := resetTrace(99) // different seed: different trace
			c.Run(memtrace.NewReader(pDirty, genDirty))
			c.Reset(tc.reuse)
			p, gen := resetTrace(11)
			got := *c.Run(memtrace.NewReader(p, gen))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset core diverges from fresh core\nfresh: %+v\nreset: %+v", want, got)
			}
		})
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
