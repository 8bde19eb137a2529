package memtrace

import (
	"slices"
	"testing"
)

func collect(p Profile, gen func(t *Tracer)) []Inst {
	return Collect(NewReader(p, gen), int(p.Normalize().MaxInstrs))
}

func TestTraceCapAndLooping(t *testing.T) {
	insts := collect(Profile{MaxInstrs: 10000}, func(tr *Tracer) {
		for { // infinite: the cap must stop us
			tr.ALU(100)
		}
	})
	if len(insts) != 10000 {
		t.Fatalf("trace length = %d, want 10000", len(insts))
	}
}

func TestDeterministicTraces(t *testing.T) {
	gen := func(tr *Tracer) {
		a := tr.Alloc(1 << 20)
		for {
			for i := uint64(0); i < 1000; i++ {
				tr.Load(a + i*64)
				tr.Branch(i%3 == 0)
			}
		}
	}
	p := Profile{Seed: 7, MaxInstrs: 20000}
	x, y := collect(p, gen), collect(p, gen)
	if len(x) != len(y) {
		t.Fatal("lengths differ")
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestMemoryOpsCarryAddresses(t *testing.T) {
	insts := collect(Profile{MaxInstrs: 5000}, func(tr *Tracer) {
		a := tr.Alloc(4096)
		for {
			tr.Load(a)
			tr.Store(a + 64)
		}
	})
	loads, stores := 0, 0
	for _, in := range insts {
		switch in.Op {
		case OpLoad:
			loads++
			if in.Addr == 0 {
				t.Fatal("load without address")
			}
		case OpStore:
			stores++
			if in.Addr == 0 {
				t.Fatal("store without address")
			}
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatal("no memory operations emitted")
	}
}

func TestKernelShareFromSyscalls(t *testing.T) {
	insts := collect(Profile{MaxInstrs: 50000}, func(tr *Tracer) {
		for {
			tr.ALU(100)
			tr.Syscall(100, 4096)
		}
	})
	kernel := 0
	for _, in := range insts {
		if in.Kernel {
			kernel++
		}
	}
	frac := float64(kernel) / float64(len(insts))
	if frac < 0.2 || frac > 0.7 {
		t.Fatalf("kernel share = %v, want roughly half", frac)
	}
}

func TestNoSyscallsNoKernel(t *testing.T) {
	insts := collect(Profile{MaxInstrs: 10000}, func(tr *Tracer) {
		for {
			tr.ALU(10)
		}
	})
	for _, in := range insts {
		if in.Kernel {
			t.Fatal("kernel instruction without syscalls")
		}
	}
}

func TestCodeFootprintBoundsPCs(t *testing.T) {
	p := Profile{MaxInstrs: 30000, CodeKB: 128, HotCodeKB: 4}
	insts := collect(p, func(tr *Tracer) {
		for {
			tr.ALU(50)
		}
	})
	lo, hi := uint64(1<<63), uint64(0)
	for _, in := range insts {
		if in.Kernel {
			continue
		}
		if in.PC < lo {
			lo = in.PC
		}
		if in.PC > hi {
			hi = in.PC
		}
	}
	if span := hi - lo; span > 200<<10 {
		t.Fatalf("code span %d exceeds footprint 128KB", span)
	}
}

func TestFrameworkInflatesFootprintUsage(t *testing.T) {
	// With framework bursts the cold code region gets visited far more.
	count := func(every int) int {
		p := Profile{MaxInstrs: 40000, CodeKB: 512, HotCodeKB: 4,
			FrameworkEvery: every, FrameworkInstrs: 200, HeapMB: 4}
		insts := collect(p, func(tr *Tracer) {
			for {
				tr.ALU(50)
			}
		})
		pages := map[uint64]bool{}
		for _, in := range insts {
			pages[in.PC>>12] = true
		}
		return len(pages)
	}
	with := count(300)
	without := count(0)
	if with <= without {
		t.Fatalf("framework bursts did not widen code usage: %d vs %d", with, without)
	}
}

func TestBranchOutcomesPreserved(t *testing.T) {
	insts := collect(Profile{MaxInstrs: 3000, BlockLen: 1000000}, func(tr *Tracer) {
		for i := 0; ; i++ {
			tr.Branch(i%2 == 0)
		}
	})
	// Data-dependent branches (Dep1 == 1, unlike block-end jumps) must
	// alternate exactly as the adapter emitted them.
	want := true
	for _, in := range insts {
		if in.Op != OpBranch || in.Dep1 != 1 {
			continue
		}
		if in.Taken != want {
			t.Fatal("branch outcome sequence corrupted")
		}
		want = !want
	}
}

func TestAllocDisjoint(t *testing.T) {
	var a, b uint64
	collect(Profile{MaxInstrs: 100}, func(tr *Tracer) {
		a = tr.Alloc(1 << 20)
		b = tr.Alloc(1 << 20)
		for {
			tr.ALU(10)
		}
	})
	if b < a+(1<<20) {
		t.Fatalf("allocations overlap: %x %x", a, b)
	}
}

func TestSliceReader(t *testing.T) {
	src := []Inst{{PC: 1}, {PC: 2}, {PC: 3}}
	r := NewSliceReader(src)
	buf := make([]Inst, 2)
	if n := r.Read(buf); n != 2 || buf[0].PC != 1 {
		t.Fatalf("first read = %d", n)
	}
	if n := r.Read(buf); n != 1 || buf[0].PC != 3 {
		t.Fatalf("second read = %d", n)
	}
	if n := r.Read(buf); n != 0 {
		t.Fatalf("EOF read = %d", n)
	}
}

// TestNextBatchIsTheReadStream: lent batches carry the same instructions in
// the same order as Read, for the live and the slice reader, also when the
// two calls are mixed on one reader.
func TestNextBatchIsTheReadStream(t *testing.T) {
	gen := func(tr *Tracer) {
		a := tr.Alloc(1 << 20)
		for i := uint64(0); ; i++ {
			tr.Load(a + i%4096*64)
			tr.Branch(i%3 == 0)
		}
	}
	p := Profile{Seed: 7, MaxInstrs: 3*batchSize + 100}
	want := collect(p, gen)
	for _, tc := range []struct {
		name string
		new  func() Reader
	}{
		{"live", func() Reader { return NewReader(p, gen) }},
		{"slice", func() Reader { return NewSliceReader(want) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mixed := range []bool{false, true} {
				r := tc.new()
				br := r.(BatchReader)
				var got []Inst
				buf := make([]Inst, 100)
				for i := 0; ; i++ {
					if mixed && i%2 == 1 {
						n := r.Read(buf)
						got = append(got, buf[:n]...)
						continue
					}
					b := br.NextBatch()
					if len(b) == 0 {
						break
					}
					got = append(got, b...)
				}
				if n := r.Read(buf); n != 0 || len(br.NextBatch()) != 0 {
					t.Fatalf("mixed=%v: reader produced instructions after its end", mixed)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("mixed=%v: %d instructions, want the Read stream's %d", mixed, len(got), len(want))
				}
			}
		})
	}
}
