package uarch

import (
	"testing"

	"dcbench/internal/memtrace"
	"dcbench/internal/uarch/bpred"
)

// run generates a trace from gen and simulates it.
func run(t *testing.T, p memtrace.Profile, gen func(tr *memtrace.Tracer)) *Counters {
	t.Helper()
	core := NewCore(DefaultConfig())
	return core.Run(memtrace.NewReader(p, gen))
}

func TestIPCBounds(t *testing.T) {
	c := run(t, memtrace.Profile{MaxInstrs: 200000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(8 << 10) // cache-resident
		for {
			for i := uint64(0); i < 64; i++ {
				tr.Load(a + i*64)
			}
		}
	})
	ipc := c.IPC()
	if ipc <= 0.3 || ipc > 4 {
		t.Fatalf("IPC = %v, want in (0.3, 4]", ipc)
	}
	if c.Instructions != 200000 {
		t.Fatalf("instructions = %d", c.Instructions)
	}
}

func TestCacheResidentBeatsThrashing(t *testing.T) {
	small := run(t, memtrace.Profile{Seed: 1, MaxInstrs: 300000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(16 << 10)
		for {
			for i := uint64(0); i < 256; i++ {
				tr.Load(a + i*64)
			}
		}
	})
	big := run(t, memtrace.Profile{Seed: 1, MaxInstrs: 300000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(64 << 20) // far beyond L3
		for {
			for i := uint64(0); i < 1<<20; i++ {
				tr.Load(a + i*64)
			}
		}
	})
	if small.IPC() <= big.IPC() {
		t.Fatalf("thrashing IPC %v >= resident IPC %v", big.IPC(), small.IPC())
	}
	if big.L2MPKI() <= small.L2MPKI() {
		t.Fatalf("L2 MPKI ordering wrong: %v vs %v", big.L2MPKI(), small.L2MPKI())
	}
	// The memory-bound loop must show back-end stalls dominated by
	// load-related resources.
	if big.LoadBufStall+big.RSStall+big.ROBStall == 0 {
		t.Fatal("no back-end stalls on a memory-bound loop")
	}
}

func TestDependencyChainsLowerIPC(t *testing.T) {
	chain := run(t, memtrace.Profile{Seed: 2, MaxInstrs: 200000, ChainProb: 0.99}, func(tr *memtrace.Tracer) {
		for {
			tr.ALU(100)
		}
	})
	parallel := run(t, memtrace.Profile{Seed: 2, MaxInstrs: 200000, ChainProb: 0.01}, func(tr *memtrace.Tracer) {
		for {
			tr.ALU(100)
		}
	})
	if chain.IPC() >= parallel.IPC() {
		t.Fatalf("chained IPC %v >= parallel IPC %v", chain.IPC(), parallel.IPC())
	}
}

func TestBigCodeFootprintRaisesL1IMPKI(t *testing.T) {
	smallCode := run(t, memtrace.Profile{Seed: 3, MaxInstrs: 300000, CodeKB: 16, HotCodeKB: 16},
		func(tr *memtrace.Tracer) {
			for {
				tr.ALU(100)
			}
		})
	bigCode := run(t, memtrace.Profile{Seed: 3, MaxInstrs: 300000, CodeKB: 2048, HotCodeKB: 512, ColdJumpP: 0.5},
		func(tr *memtrace.Tracer) {
			for {
				tr.ALU(100)
			}
		})
	if smallCode.L1IMPKI() > 1 {
		t.Fatalf("small code L1I MPKI = %v, want ~0", smallCode.L1IMPKI())
	}
	if bigCode.L1IMPKI() < 5 {
		t.Fatalf("big code L1I MPKI = %v, want >= 5", bigCode.L1IMPKI())
	}
	if bigCode.ITLBWalksPKI() <= smallCode.ITLBWalksPKI() {
		t.Fatalf("ITLB walks ordering wrong: %v vs %v",
			bigCode.ITLBWalksPKI(), smallCode.ITLBWalksPKI())
	}
	if bigCode.FetchStall <= smallCode.FetchStall {
		t.Fatal("big code did not raise fetch stalls")
	}
}

func TestRandomBranchesRaiseMispredictsAndStalls(t *testing.T) {
	regular := run(t, memtrace.Profile{Seed: 4, MaxInstrs: 200000}, func(tr *memtrace.Tracer) {
		for i := 0; ; i++ {
			tr.ALU(5)
			tr.Branch(i%8 != 7) // loop-like, predictable
		}
	})
	random := run(t, memtrace.Profile{Seed: 4, MaxInstrs: 200000}, func(tr *memtrace.Tracer) {
		for {
			tr.ALU(5)
			tr.Branch(tr.RNG().Float64() < 0.5)
		}
	})
	// The loop pattern is spread across many PCs by the code walk, so it
	// does not reach the near-zero rate of a single-PC loop — but it must
	// stay far below the random case.
	if regular.BranchMispredictRatio() > 0.15 {
		t.Fatalf("regular branches mispredict at %v", regular.BranchMispredictRatio())
	}
	// Half the dynamic branches are predictable block-end jumps, so the
	// overall ratio sits near half the 50% data-branch rate.
	if random.BranchMispredictRatio() < 0.2 {
		t.Fatalf("random branches mispredict at %v, want >= 0.2", random.BranchMispredictRatio())
	}
	if random.BranchMispredictRatio() < 2*regular.BranchMispredictRatio() {
		t.Fatalf("random (%v) should mispredict far more than regular (%v)",
			random.BranchMispredictRatio(), regular.BranchMispredictRatio())
	}
	if random.IPC() >= regular.IPC() {
		t.Fatalf("mispredict-heavy IPC %v >= regular %v", random.IPC(), regular.IPC())
	}
}

func TestDTLBWalksScaleWithDataFootprint(t *testing.T) {
	smallData := run(t, memtrace.Profile{Seed: 5, MaxInstrs: 200000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(64 << 10) // 16 pages: fits the DTLB
		for {
			for i := uint64(0); i < 1024; i++ {
				tr.Load(a + i*64)
			}
		}
	})
	bigData := run(t, memtrace.Profile{Seed: 5, MaxInstrs: 200000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(256 << 20)
		for {
			// Page-stride random-ish walk over 256 MB.
			for i := uint64(0); i < 4096; i++ {
				tr.Load(a + (i*2654435761%65536)*4096)
			}
		}
	})
	if smallData.DTLBWalksPKI() > 0.1 {
		t.Fatalf("small data DTLB walks = %v, want ~0", smallData.DTLBWalksPKI())
	}
	if bigData.DTLBWalksPKI() < 1 {
		t.Fatalf("big data DTLB walks = %v, want >= 1", bigData.DTLBWalksPKI())
	}
}

func TestL3CatchesModerateWorkingSet(t *testing.T) {
	// A 2 MB working set misses L2 (256 KB) but fits L3 (12 MB). The trace
	// is long enough that warm passes dominate the cold one.
	c := run(t, memtrace.Profile{Seed: 6, MaxInstrs: 1000000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(2 << 20)
		for {
			for i := uint64(0); i < (2<<20)/64; i++ {
				tr.Load(a + i*64)
			}
		}
	})
	if c.L2MPKI() < 1 {
		t.Fatalf("L2 MPKI = %v, want noticeable misses", c.L2MPKI())
	}
	if r := c.L3HitRatio(); r < 0.8 {
		t.Fatalf("L3 hit ratio = %v, want >= 0.8 for an L3-resident set", r)
	}
}

func TestKernelInstructionAccounting(t *testing.T) {
	c := run(t, memtrace.Profile{Seed: 7, MaxInstrs: 100000}, func(tr *memtrace.Tracer) {
		for {
			tr.ALU(300)
			tr.Syscall(100, 8192)
		}
	})
	share := c.KernelShare()
	if share < 0.1 || share > 0.6 {
		t.Fatalf("kernel share = %v, want moderate", share)
	}
}

func TestStallBreakdownNormalised(t *testing.T) {
	c := run(t, memtrace.Profile{Seed: 8, MaxInstrs: 100000}, func(tr *memtrace.Tracer) {
		a := tr.Alloc(64 << 20)
		for {
			for i := uint64(0); i < 1<<18; i++ {
				tr.Load(a + i*64)
				tr.Branch(i%2 == 0)
			}
		}
	})
	b := c.StallBreakdown()
	sum := 0.0
	for _, v := range b {
		if v < 0 || v > 1 {
			t.Fatalf("stall share out of range: %v", b)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("stall shares sum to %v", sum)
	}
}

func TestPredictorSwapChangesMispredicts(t *testing.T) {
	gen := func(tr *memtrace.Tracer) {
		for i := 0; ; i++ {
			tr.ALU(3)
			tr.Branch(i%4 != 3) // TTTN pattern: gshare learns, static cannot
		}
	}
	cfgG := DefaultConfig()
	gCore := NewCore(cfgG)
	g := gCore.Run(memtrace.NewReader(memtrace.Profile{Seed: 9, MaxInstrs: 150000}, gen))

	cfgS := DefaultConfig()
	cfgS.Predictor = bpred.KindStatic
	sCore := NewCore(cfgS)
	s := sCore.Run(memtrace.NewReader(memtrace.Profile{Seed: 9, MaxInstrs: 150000}, gen))

	if g.BranchMispredictRatio() >= s.BranchMispredictRatio() {
		t.Fatalf("gshare (%v) should beat static (%v) on patterned branches",
			g.BranchMispredictRatio(), s.BranchMispredictRatio())
	}
}

func TestMemGapThrottlesStreaming(t *testing.T) {
	gen := func(tr *memtrace.Tracer) {
		a := tr.Alloc(256 << 20)
		for {
			for i := uint64(0); i < 1<<21; i++ {
				tr.Load(a + i*64)
			}
		}
	}
	fast := DefaultConfig()
	fast.MemGap = 1
	slow := DefaultConfig()
	slow.MemGap = 50
	f := NewCore(fast).Run(memtrace.NewReader(memtrace.Profile{Seed: 10, MaxInstrs: 150000}, gen))
	s := NewCore(slow).Run(memtrace.NewReader(memtrace.Profile{Seed: 10, MaxInstrs: 150000}, gen))
	if s.IPC() >= f.IPC() {
		t.Fatalf("low-bandwidth IPC %v >= high-bandwidth IPC %v", s.IPC(), f.IPC())
	}
}

// TestDefaultFingerprintPinned: the default machine's fingerprint is the
// address of every stored record and the seed of every ETag, so a change
// that moves it silently empties every warm store. Re-cut these on a
// ModelVersion bump only. Each predictor kind has a fingerprint of its own.
func TestDefaultFingerprintPinned(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		warmup int64
		want   uint64
	}{
		{0, 0xee661aab5f1c931f},
		{250_000, 0xe5d12bf6b5af37f4},
	} {
		cfg.Warmup = tc.warmup
		if got := cfg.Fingerprint(); got != tc.want {
			t.Errorf("warmup %d: DefaultConfig().Fingerprint() = %016x, want %016x", tc.warmup, got, tc.want)
		}
		seen := map[uint64]bpred.Kind{}
		for _, k := range []bpred.Kind{bpred.KindTournament, bpred.KindBimodal, bpred.KindStatic} {
			kcfg := cfg
			kcfg.Predictor = k
			fp := kcfg.Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Errorf("warmup %d: predictor kinds %d and %d share fingerprint %016x", tc.warmup, prev, k, fp)
			}
			seen[fp] = k
		}
	}
}
