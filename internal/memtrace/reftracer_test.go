package memtrace_test

// The trace generator as it stood before its kernel was rewritten for speed
// (branch-free dependency draws on integer thresholds, in-place batch
// writes, one overhead countdown), kept verbatim as the oracle the rewrite
// is compared with instruction by instruction: the Tracer's models and
// every draw they make, in order, including sim.Zipf's float search. Only
// the hand-off is gone — the oracle appends to one slice instead of
// batching into a channel.

import (
	"math"

	"dcbench/internal/memtrace"
	"dcbench/internal/sim"
)

type refAbort struct{}

// refCollect runs gen against the oracle and returns the trace.
func refCollect(p memtrace.Profile, gen func(t *refTracer)) []memtrace.Inst {
	p = p.Normalize()
	t := &refTracer{
		prof:      p,
		rng:       sim.NewRNG(p.Seed),
		heapBytes: int64(p.HeapMB) << 20,
		allocNext: heapBase,
	}
	t.nBlocks = p.CodeKB * 1024 / blockBytes
	t.nHot = p.HotCodeKB * 1024 / blockBytes
	if t.nHot < 1 {
		t.nHot = 1
	}
	t.kernBlocks = p.KernelKB * 1024 / blockBytes
	if t.kernBlocks < 1 {
		t.kernBlocks = 1
	}
	t.coldZipf = newRefZipf(t.rng, t.nBlocks, 1.05)
	t.kernZipf = newRefZipf(t.rng, t.kernBlocks, 1.4)
	t.kernelBufs = kernelDataBase
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(refAbort); !ok {
					panic(rec)
				}
			}
		}()
		gen(t)
	}()
	return t.out
}

// refZipf is sim.Zipf as it stood: a float64 CDF searched with Float64.
type refZipf struct {
	cdf []float64
	rng *sim.RNG
}

func newRefZipf(rng *sim.RNG, n int, s float64) *refZipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &refZipf{cdf: cdf, rng: rng}
}

func (z *refZipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Address-space layout of the trace model.
const (
	userCodeBase   = 0x0000_0000_0040_0000
	kernelCodeBase = 0x0000_7000_0000_0000
	heapBase       = 0x0000_2000_0000_0000
	kernelDataBase = 0x0000_7100_0000_0000
	blockBytes     = 64 // bytes of code per basic block
)

// Tracer generates the instruction stream while a workload adapter runs.
type refTracer struct {
	prof memtrace.Profile
	rng  *sim.RNG

	out []memtrace.Inst // the whole trace; the hand-off to a reader is not the oracle's business

	emitted    int64
	appSinceFW int
	sinceGC    int64
	heapBytes  int64
	heapGCPos  int64
	allocNext  uint64
	kernelBufs uint64
	userBufs   uint64
	bufTurn    int

	// Code walk state.
	nBlocks    int // total app blocks
	nHot       int
	curBlock   int
	blockOff   int
	funcBase   int
	funcOff    int
	loopsDone  int
	inCold     bool
	inKernel   bool
	kernBlocks int
	curKBlock  int
	kBlockOff  int

	// coldZipf picks cold code blocks with realistic popularity skew:
	// library/framework paths are revisited, not uniformly random, which
	// is what lets the BTB and branch predictor stay warm while the
	// footprint tail still pressures the L1I.
	coldZipf *refZipf
	kernZipf *refZipf
}

// Emitted returns the number of instructions generated so far.
func (t *refTracer) Emitted() int64 { return t.emitted }

// RNG exposes the tracer's deterministic generator so adapters can derive
// data values without extra seeds.
func (t *refTracer) RNG() *sim.RNG { return t.rng }

// Alloc reserves a page-aligned virtual region of the given size and
// returns its base address.
func (t *refTracer) Alloc(bytes int64) uint64 {
	base := (t.allocNext + 4095) &^ 4095
	t.allocNext = base + uint64(bytes)
	return base
}

// push emits one instruction, enforcing the cap.
func (t *refTracer) push(i memtrace.Inst) {
	t.out = append(t.out, i)
	t.emitted++
	if t.emitted >= t.prof.MaxInstrs {
		panic(refAbort{})
	}
}

// The code walk models structured control flow rather than a random block
// graph: hot code is a sequence of "functions" of funcBlocks straight-line
// basic blocks; each function body loops loopTarget times (a predictable
// taken-taken-...-not-taken backward branch), then control falls through to
// the next hot function or makes a Zipf-popular excursion into cold
// library code that returns. Fall-throughs between blocks emit no branch —
// only real jumps do — so the predictor and BTB see learnable, repeating
// patterns, like compiled code and unlike a random walk.
const (
	funcBlocks = 8
	loopTarget = 4
)

// pc returns the current instruction address and advances the code walk;
// at basic-block boundaries it advances the block graph.
func (t *refTracer) pc() uint64 {
	if t.inKernel {
		addr := kernelCodeBase + uint64(t.curKBlock)*blockBytes + uint64(t.kBlockOff)*4
		t.kBlockOff++
		if t.kBlockOff*4 >= blockBytes {
			t.kBlockOff = 0
			// Kernel paths are hot: syscall entry/copy loops dominate.
			t.curKBlock = t.kernZipf.Next()
		}
		return addr
	}
	addr := userCodeBase + uint64(t.curBlock)*blockBytes + uint64(t.blockOff)*4
	t.blockOff++
	if t.blockOff >= t.prof.BlockLen {
		t.blockOff = 0
		t.advanceBlock(addr)
	}
	return addr
}

// advanceBlock moves to the next basic block, emitting jump instructions
// only for real control transfers.
func (t *refTracer) advanceBlock(lastAddr uint64) {
	jmpPC := lastAddr + 4
	jump := func(taken bool, target int) {
		t.push(memtrace.Inst{PC: jmpPC, Op: memtrace.OpBranch, Taken: taken,
			Target: userCodeBase + uint64(target)*blockBytes, NSrc: 1})
	}
	if t.inCold {
		t.funcOff++
		if t.funcOff < funcBlocks {
			t.curBlock++ // fall through within the cold function
			return
		}
		// Return to the hot caller.
		t.inCold = false
		t.funcOff = 0
		t.curBlock = t.funcBase
		jump(true, t.curBlock)
		return
	}
	t.funcOff++
	if t.funcOff < funcBlocks {
		t.curBlock++ // fall through
		return
	}
	t.funcOff = 0
	if t.loopsDone < loopTarget {
		// Backward loop branch: taken.
		t.loopsDone++
		t.curBlock = t.funcBase
		jump(true, t.curBlock)
		return
	}
	// Loop exit: the same backward branch, not taken.
	jump(false, t.funcBase)
	t.loopsDone = 0
	if t.nBlocks-t.nHot >= funcBlocks && t.rng.Float64() < t.prof.ColdJumpP {
		cold := t.coldZipf.Next()
		if cold+funcBlocks > t.nBlocks {
			cold = t.nBlocks - funcBlocks
		}
		if cold < t.nHot {
			cold = t.nHot // excursions go to cold code by definition
		}
		t.inCold = true
		t.curBlock = cold
		jump(true, cold)
		return
	}
	// Fall through to the next hot function (wrapping).
	t.funcBase += funcBlocks
	if t.funcBase+funcBlocks > t.nHot {
		t.funcBase = 0
	}
	t.curBlock = t.funcBase
}

// deps draws producer distances and source counts per the mix profile.
func (t *refTracer) deps() (d1, d2 uint16, nsrc uint8) {
	nsrc = 1
	r := t.rng.Float64()
	if r < t.prof.NSrc3P {
		nsrc = 3
	} else if r < t.prof.NSrc3P+t.prof.NSrc2P {
		nsrc = 2
	}
	if t.rng.Float64() < t.prof.ChainProb {
		d1 = 1
	} else {
		d1 = uint16(2 + t.rng.Intn(44))
	}
	if nsrc >= 2 {
		d2 = uint16(1 + t.rng.Intn(44))
	}
	return
}

// compute emits one ALU or FPU instruction.
func (t *refTracer) compute() {
	op := memtrace.OpALU
	if t.prof.FPUShare > 0 && t.rng.Float64() < t.prof.FPUShare {
		op = memtrace.OpFPU
	}
	d1, d2, nsrc := t.deps()
	t.push(memtrace.Inst{PC: t.pc(), Op: op, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
	t.overheads(1)
}

// ALU emits n ALU/FPU instructions.
func (t *refTracer) ALU(n int) {
	for i := 0; i < n; i++ {
		t.compute()
	}
}

// FPU emits n floating-point instructions regardless of FPUShare.
func (t *refTracer) FPU(n int) {
	for i := 0; i < n; i++ {
		d1, d2, nsrc := t.deps()
		t.push(memtrace.Inst{PC: t.pc(), Op: memtrace.OpFPU, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
		t.overheads(1)
	}
}

// memOp emits a load or store plus the surrounding ALU work.
func (t *refTracer) memOp(op memtrace.Op, addr uint64) {
	for i := 0; i < t.prof.ALUPerMem; i++ {
		t.compute()
	}
	d1, d2, nsrc := t.deps()
	t.push(memtrace.Inst{PC: t.pc(), Op: op, Addr: addr, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
	t.overheads(1)
}

// Load emits a load of addr (plus mix overhead).
func (t *refTracer) Load(addr uint64) { t.memOp(memtrace.OpLoad, addr) }

// Store emits a store to addr (plus mix overhead).
func (t *refTracer) Store(addr uint64) { t.memOp(memtrace.OpStore, addr) }

// Branch emits a data-dependent conditional branch with the given real
// outcome at the default site (0). Prefer BranchSite: a static branch
// instruction lives at one PC, and predictors only learn per-site history.
func (t *refTracer) Branch(taken bool) { t.BranchSite(0, taken) }

// BranchSite emits a conditional branch belonging to the logical source
// site `site`: every call with the same site uses the same instruction
// address (within the hot code region) and the same target, as a compiled
// branch would.
func (t *refTracer) BranchSite(site int, taken bool) {
	block := site
	if t.nHot > 0 {
		block = site % t.nHot
	}
	pcv := userCodeBase + uint64(block)*blockBytes + 56
	t.push(memtrace.Inst{PC: pcv, Op: memtrace.OpBranch, Taken: taken, Target: pcv + 64,
		Dep1: 1, NSrc: 1, Kernel: t.inKernel})
	t.overheads(1)
}

// Syscall emits a kernel-mode excursion of roughly instrs instructions
// that copies touchBytes between recycled user I/O buffers and the kernel's
// buffer window — the read/write/send path that dominates OS time in the
// I/O-heavy workloads. Buffers are drawn from a fixed pool, as real I/O
// paths reuse page-cache and socket buffers rather than touching fresh
// memory on every call.
func (t *refTracer) Syscall(instrs int, touchBytes int64) {
	if t.inKernel {
		return // no nested syscalls in the model
	}
	if t.userBufs == 0 {
		t.userBufs = t.Alloc(userBufCount * userBufBytes)
		t.kernelBufs = kernelDataBase
	}
	t.inKernel = true
	t.curKBlock = t.kernZipf.Next()
	userBuf := t.userBufs + uint64(t.bufTurn%userBufCount)*userBufBytes
	kernBuf := t.kernelBufs + uint64(t.bufTurn%4)*kernBufBytes
	t.bufTurn++
	// Entry/exit path: mode switch, argument checks, fd lookup.
	for i := 0; i < 40 && i < instrs; i++ {
		t.compute()
	}
	emitted := 40
	// Copy loop: load user, store kernel, stride one cache line.
	var off int64
	for emitted < instrs {
		if touchBytes > 0 {
			t.memOp(memtrace.OpLoad, userBuf+uint64(off)%userBufBytes)
			t.memOp(memtrace.OpStore, kernBuf+uint64(off)%kernBufBytes)
			off += 64
			if off >= touchBytes {
				off = 0
			}
			emitted += 2 * (t.prof.ALUPerMem + 1)
		} else {
			t.compute()
			emitted++
		}
	}
	t.inKernel = false
}

// I/O buffer pool geometry: small and recycled, like real page-cache and
// socket-buffer pages, so the copy path stays cache-warm instead of
// inventing an unbounded cold footprint.
const (
	userBufCount = 8
	userBufBytes = 8 << 10
	kernBufBytes = 64 << 10
)

// overheads injects the framework and GC excursions after app instructions.
func (t *refTracer) overheads(n int) {
	if t.inKernel {
		return
	}
	if t.prof.GCEvery > 0 {
		t.sinceGC += int64(n)
	}
	if t.prof.FrameworkEvery > 0 {
		t.appSinceFW += n
		if t.appSinceFW >= t.prof.FrameworkEvery {
			t.appSinceFW = 0
			t.frameworkBurst()
		}
	}
	if t.prof.GCEvery > 0 && t.sinceGC >= t.prof.GCEvery {
		t.sinceGC = 0
		t.gcBurst()
	}
}

// frameworkBurst walks cold code (virtual dispatch, serialisation, task
// bookkeeping) touching scattered heap metadata.
func (t *refTracer) frameworkBurst() {
	saveBlock, saveOff := t.curBlock, t.blockOff
	// Framework metadata (task state, serialisers, object headers) is a
	// small hot window of the heap; only a sliver of touches hit the tail.
	hotWindow := t.heapBytes
	if hotWindow > 64<<10 {
		hotWindow = 64 << 10
	}
	for i := 0; i < t.prof.FrameworkInstrs; i++ {
		// Cold code walk: jump blocks every FrameworkJump instructions,
		// with Zipf-popular targets.
		if i%t.prof.FrameworkJump == 0 {
			t.curBlock = t.coldZipf.Next()
			t.blockOff = 0
		}
		d1, d2, nsrc := t.deps()
		in := memtrace.Inst{PC: t.pcRaw(), Op: memtrace.OpALU, Dep1: d1, Dep2: d2, NSrc: nsrc}
		if i%6 == 5 && t.heapBytes > 0 {
			in.Op = memtrace.OpLoad
			if t.rng.Float64() < 0.92 {
				in.Addr = heapBase + t.rng.Uint64()%uint64(hotWindow)
			} else {
				in.Addr = heapBase + t.rng.Uint64()%uint64(t.heapBytes)
			}
		}
		if i%13 == 12 {
			in.Op = memtrace.OpBranch
			// Structured: the same call sites take the same paths.
			in.Taken = i%26 == 12
			in.Target = userCodeBase + uint64(t.coldZipf.Next())*blockBytes
		}
		t.push(in)
	}
	t.curBlock, t.blockOff = saveBlock, saveOff
}

// gcBurst sweeps the heap sequentially, the stop-the-world mark/sweep
// phases of a managed runtime.
func (t *refTracer) gcBurst() {
	for i := 0; i < t.prof.GCInstrs; i++ {
		in := memtrace.Inst{PC: t.pcRaw(), Op: memtrace.OpALU, Dep1: 1, NSrc: 1}
		if i%2 != 0 && t.heapBytes > 0 {
			in.Op = memtrace.OpLoad
			in.Addr = heapBase + uint64(t.heapGCPos)
			t.heapGCPos += 64
			if t.heapGCPos >= t.heapBytes {
				t.heapGCPos = 0
			}
		}
		t.push(in)
		if i%8 == 7 {
			t.curBlock = t.coldZipf.Next()
			t.blockOff = 0
		}
	}
}

// pcRaw advances the PC without recursing into overheads (used inside
// bursts).
func (t *refTracer) pcRaw() uint64 {
	addr := userCodeBase + uint64(t.curBlock)*blockBytes + uint64(t.blockOff)*4
	t.blockOff++
	if t.blockOff >= t.prof.BlockLen {
		t.blockOff = 0
	}
	return addr
}
