package memtrace

import (
	"sync"

	"dcbench/internal/sim"
)

// Profile parameterises the Tracer's code, framework and instruction-mix
// models for one workload class. Zero values get sensible defaults from
// Normalize.
type Profile struct {
	Seed      uint64
	MaxInstrs int64 // trace length cap; generation stops here

	// Code model.
	CodeKB    int     // application code footprint (incl. libraries)
	HotCodeKB int     // hot loop footprint the algorithm itself runs in
	KernelKB  int     // kernel code footprint touched by syscalls
	BlockLen  int     // average basic block length in instructions
	ColdJumpP float64 // probability a block-end jump leaves the hot set

	// Framework / managed-runtime overhead model.
	FrameworkEvery  int // app instructions between framework excursions (0 = none)
	FrameworkInstrs int // instructions per excursion
	FrameworkJump   int // instructions between cold-code jumps inside an excursion
	GCEvery         int64
	GCInstrs        int
	HeapMB          int

	// Instruction mix.
	ALUPerMem int     // ALU instructions surrounding each memory access
	FPUShare  float64 // fraction of compute ops that are FPU
	NSrc2P    float64 // probability an op reads 2 sources
	NSrc3P    float64 // probability an op reads 3 sources (register pressure)
	ChainProb float64 // probability an op depends on the previous one
}

// Normalize fills defaults for unset fields.
func (p Profile) Normalize() Profile {
	if p.MaxInstrs == 0 {
		p.MaxInstrs = 2_000_000
	}
	if p.CodeKB == 0 {
		p.CodeKB = 64
	}
	if p.HotCodeKB == 0 {
		p.HotCodeKB = 8
	}
	if p.HotCodeKB > p.CodeKB {
		p.HotCodeKB = p.CodeKB
	}
	if p.KernelKB == 0 {
		p.KernelKB = 192
	}
	if p.BlockLen == 0 {
		p.BlockLen = 6
	}
	if p.ALUPerMem == 0 {
		p.ALUPerMem = 2
	}
	if p.FrameworkJump == 0 {
		p.FrameworkJump = 8
	}
	if p.ChainProb == 0 {
		p.ChainProb = 0.4
	}
	if p.NSrc2P == 0 {
		p.NSrc2P = 0.35
	}
	return p
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
type Tracer struct {
	prof Profile
	rng  *sim.RNG

	out     chan []Inst
	buf     []Inst
	stopped bool

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
	coldZipf *sim.Zipf
	kernZipf *sim.Zipf
}

type abortTrace struct{}

// TracePanic wraps a panic that escaped a trace generator. The generator
// runs in its own goroutine, so the panic is re-raised inside the consuming
// goroutine's Read call once the trace ends; the wrapper lets consumers
// distinguish "the generator blew up" (its goroutine has already exited)
// from a panic in their own simulation code (the generator may still be
// producing).
type TracePanic struct{ Val any }

const batchSize = 8192

// batchPool recycles instruction batches between the generator goroutine
// and the consuming reader. A full characterization sweep moves hundreds of
// millions of instructions through these batches; pooling takes the
// per-batch allocation (and the GC churn it feeds) off the trace hot path.
// Batches return to the pool in (*chanReader).fill once fully consumed.
var batchPool = sync.Pool{
	New: func() any { return make([]Inst, 0, batchSize) },
}

func newBatch() []Inst { return batchPool.Get().([]Inst)[:0] }

func recycleBatch(b []Inst) {
	if cap(b) == batchSize {
		batchPool.Put(b[:0])
	}
}

// NewReader runs gen(t) in a generator goroutine and returns the resulting
// instruction stream. Generation ends when gen returns or the profile's
// MaxInstrs cap is reached; adapters may therefore loop indefinitely.
func NewReader(p Profile, gen func(t *Tracer)) Reader {
	p = p.Normalize()
	t := &Tracer{
		prof:      p,
		rng:       sim.NewRNG(p.Seed),
		out:       make(chan []Inst, 4),
		buf:       newBatch(),
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
	t.coldZipf = sim.NewZipf(t.rng, t.nBlocks, 1.05)
	t.kernZipf = sim.NewZipf(t.rng, t.kernBlocks, 1.4)
	t.kernelBufs = kernelDataBase
	r := &chanReader{ch: t.out}
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(abortTrace); !ok {
					// Hand the panic to the consuming goroutine: the write
					// happens before close(t.out), which happens before the
					// reader observes the closed channel. Re-panicking on
					// the consumer side keeps adapter bugs loud while
					// letting sweep workers recover them as per-workload
					// errors instead of killing the whole process.
					r.genPanic = rec
				}
			}
			if len(t.buf) > 0 {
				t.out <- t.buf
			}
			close(t.out)
		}()
		gen(t)
	}()
	return r
}

type chanReader struct {
	ch       chan []Inst
	batch    []Inst // batch last received, recycled when the next one is
	pending  []Inst // the part of batch not yet handed out
	genPanic any    // generator panic, re-raised at end of trace
}

// fill makes pending the generator's next batch, returning the previous one
// to the pool; false means end of trace.
func (r *chanReader) fill() bool {
	for len(r.pending) == 0 {
		if r.batch != nil {
			recycleBatch(r.batch)
			r.batch = nil
		}
		batch, ok := <-r.ch
		if !ok {
			if r.genPanic != nil {
				panic(TracePanic{r.genPanic})
			}
			return false
		}
		r.batch = batch
		r.pending = batch
	}
	return true
}

// Read implements Reader. Instructions are copied into buf, so the batch
// they arrived in can go back to the pool as soon as it is drained.
func (r *chanReader) Read(buf []Inst) int {
	if !r.fill() {
		return 0
	}
	n := copy(buf, r.pending)
	r.pending = r.pending[n:]
	return n
}

// NextBatch implements BatchReader: the generator's own pooled batch is
// lent to the caller, and goes back to the pool on the next call.
func (r *chanReader) NextBatch() []Inst {
	if !r.fill() {
		return nil
	}
	b := r.pending
	r.pending = nil
	return b
}

// Emitted returns the number of instructions generated so far.
func (t *Tracer) Emitted() int64 { return t.emitted }

// RNG exposes the tracer's deterministic generator so adapters can derive
// data values without extra seeds.
func (t *Tracer) RNG() *sim.RNG { return t.rng }

// Alloc reserves a page-aligned virtual region of the given size and
// returns its base address.
func (t *Tracer) Alloc(bytes int64) uint64 {
	base := (t.allocNext + 4095) &^ 4095
	t.allocNext = base + uint64(bytes)
	return base
}

// push emits one instruction, flushing batches and enforcing the cap.
func (t *Tracer) push(i Inst) {
	t.buf = append(t.buf, i)
	if len(t.buf) >= batchSize {
		t.out <- t.buf
		t.buf = newBatch()
	}
	t.emitted++
	if t.emitted >= t.prof.MaxInstrs {
		panic(abortTrace{})
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
func (t *Tracer) pc() uint64 {
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
func (t *Tracer) advanceBlock(lastAddr uint64) {
	jmpPC := lastAddr + 4
	jump := func(taken bool, target int) {
		t.push(Inst{PC: jmpPC, Op: OpBranch, Taken: taken,
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
func (t *Tracer) deps() (d1, d2 uint16, nsrc uint8) {
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
func (t *Tracer) compute() {
	op := OpALU
	if t.prof.FPUShare > 0 && t.rng.Float64() < t.prof.FPUShare {
		op = OpFPU
	}
	d1, d2, nsrc := t.deps()
	t.push(Inst{PC: t.pc(), Op: op, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
	t.overheads(1)
}

// ALU emits n ALU/FPU instructions.
func (t *Tracer) ALU(n int) {
	for i := 0; i < n; i++ {
		t.compute()
	}
}

// FPU emits n floating-point instructions regardless of FPUShare.
func (t *Tracer) FPU(n int) {
	for i := 0; i < n; i++ {
		d1, d2, nsrc := t.deps()
		t.push(Inst{PC: t.pc(), Op: OpFPU, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
		t.overheads(1)
	}
}

// memOp emits a load or store plus the surrounding ALU work.
func (t *Tracer) memOp(op Op, addr uint64) {
	for i := 0; i < t.prof.ALUPerMem; i++ {
		t.compute()
	}
	d1, d2, nsrc := t.deps()
	t.push(Inst{PC: t.pc(), Op: op, Addr: addr, Dep1: d1, Dep2: d2, NSrc: nsrc, Kernel: t.inKernel})
	t.overheads(1)
}

// Load emits a load of addr (plus mix overhead).
func (t *Tracer) Load(addr uint64) { t.memOp(OpLoad, addr) }

// Store emits a store to addr (plus mix overhead).
func (t *Tracer) Store(addr uint64) { t.memOp(OpStore, addr) }

// Branch emits a data-dependent conditional branch with the given real
// outcome at the default site (0). Prefer BranchSite: a static branch
// instruction lives at one PC, and predictors only learn per-site history.
func (t *Tracer) Branch(taken bool) { t.BranchSite(0, taken) }

// BranchSite emits a conditional branch belonging to the logical source
// site `site`: every call with the same site uses the same instruction
// address (within the hot code region) and the same target, as a compiled
// branch would.
func (t *Tracer) BranchSite(site int, taken bool) {
	block := site
	if t.nHot > 0 {
		block = site % t.nHot
	}
	pcv := userCodeBase + uint64(block)*blockBytes + 56
	t.push(Inst{PC: pcv, Op: OpBranch, Taken: taken, Target: pcv + 64,
		Dep1: 1, NSrc: 1, Kernel: t.inKernel})
	t.overheads(1)
}

// Syscall emits a kernel-mode excursion of roughly instrs instructions
// that copies touchBytes between recycled user I/O buffers and the kernel's
// buffer window — the read/write/send path that dominates OS time in the
// I/O-heavy workloads. Buffers are drawn from a fixed pool, as real I/O
// paths reuse page-cache and socket buffers rather than touching fresh
// memory on every call.
func (t *Tracer) Syscall(instrs int, touchBytes int64) {
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
			t.memOp(OpLoad, userBuf+uint64(off)%userBufBytes)
			t.memOp(OpStore, kernBuf+uint64(off)%kernBufBytes)
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
func (t *Tracer) overheads(n int) {
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
func (t *Tracer) frameworkBurst() {
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
		in := Inst{PC: t.pcRaw(), Op: OpALU, Dep1: d1, Dep2: d2, NSrc: nsrc}
		if i%6 == 5 && t.heapBytes > 0 {
			in.Op = OpLoad
			if t.rng.Float64() < 0.92 {
				in.Addr = heapBase + t.rng.Uint64()%uint64(hotWindow)
			} else {
				in.Addr = heapBase + t.rng.Uint64()%uint64(t.heapBytes)
			}
		}
		if i%13 == 12 {
			in.Op = OpBranch
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
func (t *Tracer) gcBurst() {
	for i := 0; i < t.prof.GCInstrs; i++ {
		in := Inst{PC: t.pcRaw(), Op: OpALU, Dep1: 1, NSrc: 1}
		if i%2 != 0 && t.heapBytes > 0 {
			in.Op = OpLoad
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
func (t *Tracer) pcRaw() uint64 {
	addr := userCodeBase + uint64(t.curBlock)*blockBytes + uint64(t.blockOff)*4
	t.blockOff++
	if t.blockOff >= t.prof.BlockLen {
		t.blockOff = 0
	}
	return addr
}
