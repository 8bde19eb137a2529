package memtrace_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/sim"
)

// tracerAPI is what adapters call, implemented by the Tracer and by the
// oracle, so one synthetic adapter can drive both.
type tracerAPI interface {
	ALU(n int)
	FPU(n int)
	Load(addr uint64)
	Store(addr uint64)
	Branch(taken bool)
	BranchSite(site int, taken bool)
	Syscall(instrs int, touchBytes int64)
	Alloc(bytes int64) uint64
	RNG() *sim.RNG
	Emitted() int64
}

// drive is an endless adapter that makes every kind of call in a seeded
// order of its own, draws from the tracer's shared RNG between calls the way
// real adapters do (a kernel that steps the generator in registers must
// leave it where those draws expect it), and notes Emitted() as it goes.
func drive(t tracerAPI, seed uint64, syscalls bool, marks *[]int64) {
	pick := sim.NewRNG(seed)
	small, big := t.Alloc(1<<20), t.Alloc(64<<20)
	for {
		switch pick.Intn(12) {
		case 0:
			t.ALU(1 + pick.Intn(40))
		case 1:
			t.FPU(1 + pick.Intn(8))
		case 2:
			t.Load(small + pick.Uint64()%(1<<20)&^7)
		case 3:
			t.Store(big + t.RNG().Uint64()%(64<<20)&^7)
		case 4:
			t.Branch(t.RNG().Float64() < 0.5)
		case 5:
			// Hot sites, and sites beyond the hot region on either side.
			t.BranchSite(pick.Intn(6000)-1000, pick.Intn(3) == 0)
		case 6:
			for j, n := uint64(0), uint64(pick.Intn(64)); j < n; j++ {
				t.Load(small + j*64)
				t.BranchSite(3, j+1 < n)
			}
		case 7:
			t.RNG().Intn(7)
			t.ALU(2)
		case 8:
			*marks = append(*marks, t.Emitted())
		default:
			if syscalls {
				t.Syscall(pick.Intn(300), int64(pick.Intn(3))*4096)
			}
		}
	}
}

// compareWithOracle generates p's trace under drive with the Tracer and with
// the generator it replaced, and fails at the first instruction that differs.
func compareWithOracle(t *testing.T, name string, p memtrace.Profile, seed uint64, syscalls bool) {
	t.Helper()
	var wantMarks, gotMarks []int64
	want := refCollect(p, func(tr *refTracer) { drive(tr, seed, syscalls, &wantMarks) })
	r := memtrace.NewReader(p, func(tr *memtrace.Tracer) { drive(tr, seed, syscalls, &gotMarks) })
	n := 0
	for batch := r.NextBatch(); len(batch) > 0; batch = r.NextBatch() {
		if n+len(batch) > len(want) {
			t.Fatalf("%s: more than the oracle's %d instructions", name, len(want))
		}
		for i := range batch {
			if batch[i] != want[n+i] {
				t.Fatalf("%s: instruction %d is %+v, the oracle has %+v\nprofile %+v", name, n+i, batch[i], want[n+i], p)
			}
		}
		n += len(batch)
	}
	if n != len(want) {
		t.Fatalf("%s: %d instructions, the oracle has %d", name, n, len(want))
	}
	if !slices.Equal(gotMarks, wantMarks) {
		t.Fatalf("%s: Emitted() read %v, the oracle's read %v", name, gotMarks, wantMarks)
	}
}

// TestRegistryProfilesMatchOracle: the 26 shipped profiles, at the shipped
// job length and at the dispatched one.
func TestRegistryProfilesMatchOracle(t *testing.T) {
	lengths := []int64{900_000, 40_000}
	if testing.Short() {
		lengths = lengths[1:]
	}
	for i, w := range core.Registry() {
		for _, n := range lengths {
			p := w.Profile
			p.MaxInstrs = n
			compareWithOracle(t, fmt.Sprintf("%s at %d", w.Name, n), p, uint64(i), w.Class == core.Service)
		}
	}
}

// randomProfile draws a profile from the corners the kernel's arithmetic
// has inside the domain Profile.Validate admits (the only profiles
// NewReader is defined on): probabilities that are 0, 1 or a hair inside
// either end; footprints of 0 and of the 2¹⁴ KB ceiling; periods of 1 and
// GC more often than the framework; no heap; block and jump lengths of 1;
// trace lengths of 1 and of whole batches.
func randomProfile(r *sim.RNG, i int) memtrace.Profile {
	prob := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0 // Normalize's "unset" for ChainProb and NSrc2P
		case 1:
			return 1
		case 2:
			return math.Nextafter(1, 0)
		case 3:
			return math.SmallestNonzeroFloat64
		}
		return r.Float64()
	}
	of := func(vs ...int) int { return vs[r.Intn(len(vs))] }
	p := memtrace.Profile{
		Seed:            r.Uint64() >> uint(r.Intn(64)), // 0 now and then
		MaxInstrs:       int64(20_000 + r.Intn(40_000)),
		CodeKB:          of(0, 1, 8, 64, 768, 2048, 1<<14),
		HotCodeKB:       of(0, 1, 8, 24, 4096, 1<<14),
		KernelKB:        of(0, 1, 192, 512, 1<<14),
		BlockLen:        of(0, 1, 2, 5, 9),
		ColdJumpP:       prob(),
		FrameworkEvery:  of(0, 1, 7, 250, 500),
		FrameworkInstrs: of(0, 1, 13, 60, 160),
		FrameworkJump:   of(0, 1, 3, 8, 1000),
		GCEvery:         int64(of(0, 1, 100, 5_000, 300_000)),
		GCInstrs:        of(0, 1, 7, 2_000),
		HeapMB:          of(0, 1, 4),
		ALUPerMem:       of(0, 1, 3),
		FPUShare:        prob(),
		NSrc2P:          prob(),
		NSrc3P:          prob(),
		ChainProb:       prob(),
	}
	if p.CodeKB != 0 && p.HotCodeKB > p.CodeKB {
		p.HotCodeKB = p.CodeKB // the hot set is part of the code footprint
	}
	// Trace lengths around multiples of the batch length are where the
	// batch hand-off and the cap meet.
	switch i % 8 {
	case 0:
		p.MaxInstrs = 1
	case 1:
		p.MaxInstrs = memtrace.BatchSize
	case 2:
		p.MaxInstrs = 3 * memtrace.BatchSize
	case 3:
		p.MaxInstrs = 2*memtrace.BatchSize + 1
	}
	return p
}

// TestRandomProfilesMatchOracle: seeded profiles from the corners, half of
// them under a syscall-heavy adapter.
func TestRandomProfilesMatchOracle(t *testing.T) {
	profiles := 320
	if testing.Short() {
		profiles = 64
	}
	r := sim.NewRNG(2013)
	for i := 0; i < profiles; i++ {
		p := randomProfile(r, i)
		if err := p.Validate(); err != nil {
			t.Fatalf("random profile %d is outside the generator's domain: %v", i, err)
		}
		compareWithOracle(t, fmt.Sprintf("random profile %d", i), p, r.Uint64(), i%2 == 0)
	}
}
