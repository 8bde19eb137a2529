package memtrace

import (
	"fmt"
	"math"
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

// maxFootprintKB bounds each code footprint a profile may ask for: 16 MiB,
// four times the largest registry footprint. NewReader builds one Zipf
// table over CodeKB and one over KernelKB, so a valid profile's tables stay
// within 4 MiB.
const maxFootprintKB = 1 << 14

// Validate reports the first field outside the range the trace model is
// defined on, by name: footprints in [0, maxFootprintKB], HotCodeKB no
// larger than a set CodeKB, probabilities finite and in [0, 1], and
// lengths, periods and HeapMB not negative. Zero stays valid everywhere:
// Normalize reads it as the default.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name string
		kb   int
	}{{"CodeKB", p.CodeKB}, {"HotCodeKB", p.HotCodeKB}, {"KernelKB", p.KernelKB}} {
		if f.kb < 0 || f.kb > maxFootprintKB {
			return fmt.Errorf("profile %s %d outside [0, %d]", f.name, f.kb, maxFootprintKB)
		}
	}
	if p.CodeKB != 0 && p.HotCodeKB > p.CodeKB {
		return fmt.Errorf("profile HotCodeKB %d exceeds CodeKB %d", p.HotCodeKB, p.CodeKB)
	}
	for _, f := range []struct {
		name string
		p    float64
	}{{"ColdJumpP", p.ColdJumpP}, {"FPUShare", p.FPUShare}, {"NSrc2P", p.NSrc2P},
		{"NSrc3P", p.NSrc3P}, {"ChainProb", p.ChainProb}} {
		if !(f.p >= 0 && f.p <= 1) {
			return fmt.Errorf("profile %s %g outside [0, 1]", f.name, f.p)
		}
	}
	for _, f := range []struct {
		name string
		n    int64
	}{{"MaxInstrs", p.MaxInstrs}, {"BlockLen", int64(p.BlockLen)},
		{"FrameworkEvery", int64(p.FrameworkEvery)}, {"FrameworkInstrs", int64(p.FrameworkInstrs)},
		{"FrameworkJump", int64(p.FrameworkJump)}, {"GCEvery", p.GCEvery},
		{"GCInstrs", int64(p.GCInstrs)}, {"HeapMB", int64(p.HeapMB)}, {"ALUPerMem", int64(p.ALUPerMem)}} {
		if f.n < 0 {
			return fmt.Errorf("profile %s %d is negative", f.name, f.n)
		}
	}
	return nil
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

	// The profile's coin flips as integer thresholds (see threshold).
	fpuT, src3T, src2T, chainT, coldT uint64

	out  chan []Inst
	done chan struct{} // closed by LiveReader.Close
	// The batch being filled, by index: buf[n] is the next slot, and
	// reaching limit — the batch's end or the trace's, whichever is
	// nearer — is the one test an instruction pays for both.
	buf     *[batchSize]Inst
	n       int
	limit   int
	flushed int64 // instructions in the batches already handed over

	// Framework and GC excursions are due when app, the count of
	// user-mode application instructions, reaches nextFW and nextGC;
	// an instruction tests only nextOver, the nearer of the two.
	app, nextOver, nextFW, nextGC int64

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

// batchSize is the generator's batch length: 2048 instructions, 64 KiB.
// The generator's channel is two deep, so it can run ahead of the core by a
// batch while another is being handed over, and a trace in flight pins at
// most four batches (the one lent to the reader, two queued, one being
// filled): 256 KiB.
const batchSize = 2048

// batchPool recycles instruction batches between the generator goroutine
// and the consuming reader. A full characterization sweep moves hundreds of
// millions of instructions through these batches; pooling takes the
// per-batch allocation (and the GC churn it feeds) off the trace hot path.
// Batches return to the pool in (*LiveReader).fill once fully consumed.
var batchPool = sync.Pool{
	New: func() any { return new([batchSize]Inst) },
}

func newBatch() *[batchSize]Inst { return batchPool.Get().(*[batchSize]Inst) }

// recycleBatch returns the batch b is a prefix of to the pool.
func recycleBatch(b []Inst) { batchPool.Put((*[batchSize]Inst)(b[:batchSize])) }

// threshold returns T such that rng.Uint64()>>11 < T exactly when
// rng.Float64() < p. Float64 is k/2⁵³ for the integer k = Uint64()>>11, and
// both k/2⁵³ and p·2⁵³ are exact in float64, so k/2⁵³ < p ⇔ k < p·2⁵³ ⇔
// k < ceil(p·2⁵³): T is 0 for p ≤ 0 or NaN (never) and 2⁵³ for p ≥ 1 (always).
func threshold(p float64) uint64 {
	x := math.Ceil(p * (1 << 53))
	switch {
	case x >= 1<<53:
		return 1 << 53
	case x > 0:
		return uint64(x)
	}
	return 0
}

// below is 1 when k < t and 0 otherwise, for k and t up to 2⁵³: the sign bit
// of the difference, so a coin flip selects by arithmetic instead of steering
// a branch the host cannot predict.
func below(k, t uint64) uint64 { return (k - t) >> 63 }

// NewReader runs gen(t) in a generator goroutine and returns the resulting
// instruction stream. Generation ends when gen returns, the profile's
// MaxInstrs cap is reached or the reader is closed; adapters may therefore
// loop indefinitely. p must pass Validate: the generator is defined only on
// that domain (every registry profile passes, and the job path refuses a
// key whose profile does not).
func NewReader(p Profile, gen func(t *Tracer)) *LiveReader {
	p = p.Normalize()
	t := &Tracer{
		prof:      p,
		rng:       sim.NewRNG(p.Seed),
		fpuT:      threshold(p.FPUShare),
		src3T:     threshold(p.NSrc3P),
		chainT:    threshold(p.ChainProb),
		coldT:     threshold(p.ColdJumpP),
		out:       make(chan []Inst, 2), // see batchSize
		done:      make(chan struct{}),
		buf:       newBatch(),
		limit:     int(min(batchSize, p.MaxInstrs)),
		nextFW:    math.MaxInt64,
		nextGC:    math.MaxInt64,
		heapBytes: int64(p.HeapMB) << 20,
		allocNext: heapBase,
	}
	// An op reads at least two sources when the draw is below NSrc3P or
	// below NSrc3P+NSrc2P; NSrc2P ≥ 0 makes the first imply the second.
	t.src2T = threshold(p.NSrc3P + p.NSrc2P)
	if p.FrameworkEvery > 0 {
		t.nextFW = int64(p.FrameworkEvery)
	}
	if p.GCEvery > 0 {
		t.nextGC = p.GCEvery
	}
	t.nextOver = min(t.nextFW, t.nextGC)
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
	r := &LiveReader{ch: t.out, done: t.done}
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
			if t.n > 0 && t.send() {
				t.buf = nil
			}
			if t.buf != nil {
				recycleBatch(t.buf[:])
			}
			close(t.out)
		}()
		gen(t)
	}()
	return r
}

// LiveReader is the stream of a running generator: a Reader and a
// BatchReader, for one consuming goroutine.
type LiveReader struct {
	ch       chan []Inst
	done     chan struct{} // closed by Close; the generator's stop signal
	closed   bool
	batch    []Inst // batch last received, recycled when the next one is
	pending  []Inst // the part of batch not yet handed out
	genPanic any    // generator panic, re-raised at end of trace
}

// fill makes pending the generator's next batch, returning the previous one
// to the pool; false means end of trace.
func (r *LiveReader) fill() bool {
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

// Read implements Reader.
func (r *LiveReader) Read(buf []Inst) int {
	if !r.fill() {
		return 0
	}
	n := copy(buf, r.pending)
	r.pending = r.pending[n:]
	return n
}

// NextBatch implements BatchReader: the generator's own pooled batch is
// lent to the caller, and goes back to the pool on the next call.
func (r *LiveReader) NextBatch() []Inst {
	if !r.fill() {
		return nil
	}
	b := r.pending
	r.pending = nil
	return b
}

// Close abandons the rest of the trace. The generator sees it when it next
// hands a batch over — within batchSize instructions, or at once if it is
// blocked on a full channel — and unwinds; Close returns when its goroutine
// has exited, and the reader then reads as ended (a lent batch is no longer
// valid, a generator panic on the way out is dropped). Closing a reader
// that has ended, or twice, does nothing.
func (r *LiveReader) Close() {
	if !r.closed {
		r.closed = true
		close(r.done)
	}
	for b := range r.ch {
		recycleBatch(b)
	}
	if r.batch != nil {
		recycleBatch(r.batch)
	}
	r.batch, r.pending, r.genPanic = nil, nil, nil
}

// Emitted returns the number of instructions generated so far.
func (t *Tracer) Emitted() int64 { return t.flushed + int64(t.n) }

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

// put writes one instruction into the batch's next slot and counts it,
// handing the batch over at limit. Field by field, and every field (the slot
// holds an older batch's instruction): a composite literal would be
// assembled on the stack in byte-sized stores and copied over in 16-byte
// loads that stall until every one of them has landed.
func (t *Tracer) put(pc, addr, target uint64, op Op, taken bool, d1, d2 uint16, nsrc uint8) {
	// n is below batchSize whenever an instruction is due; the mask only
	// tells the compiler so.
	in := &t.buf[t.n&(batchSize-1)]
	in.PC, in.Addr, in.Target = pc, addr, target
	in.Dep1, in.Dep2, in.NSrc = d1, d2, nsrc
	in.Op, in.Taken, in.Kernel = op, taken, t.inKernel
	t.n++
	if t.n >= t.limit {
		t.flush()
	}
}

// send hands the filled part of the batch to the reader; false means the
// reader has closed instead. done is polled first because a select with both
// cases ready picks either: a closed reader that is still draining the
// channel would otherwise be sent a few more batches, at random.
func (t *Tracer) send() bool {
	select {
	case <-t.done:
		return false
	default:
	}
	select {
	case t.out <- t.buf[:t.n]:
		return true
	case <-t.done:
		return false
	}
}

// flush hands the batch over at limit and starts the next one, or unwinds
// the adapter: at the MaxInstrs cap, or because the reader has closed.
func (t *Tracer) flush() {
	if !t.send() {
		t.n = 0
		panic(abortTrace{})
	}
	t.flushed += int64(t.n)
	t.buf, t.n = nil, 0
	if t.flushed >= t.prof.MaxInstrs {
		panic(abortTrace{})
	}
	t.buf = newBatch()
	t.limit = int(min(batchSize, t.prof.MaxInstrs-t.flushed))
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
		t.put(jmpPC, 0, userCodeBase+uint64(target)*blockBytes, OpBranch, taken, 0, 0, 1)
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
	if t.nBlocks-t.nHot >= funcBlocks && t.rng.Uint64()>>11 < t.coldT {
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

// deps draws producer distances and source counts per the mix profile: one
// draw for the source count (three below NSrc3P, two below NSrc3P+NSrc2P),
// one for whether the op chains on the previous one (Dep1 = 1) and, only when
// they are needed, one each for a Dep1 in [2, 46) and a Dep2 in [1, 45).
//
// The two coin flips land either way about as often, which no branch
// predictor can learn, so nothing here branches: the generator is stepped
// four times in registers, the flips become 0/1 words that pick the
// distances and, last, the state after exactly as many draws as were needed
// — what drawing them one by one leaves in the shared RNG.
func (t *Tracer) deps() (d1, d2 uint16, nsrc uint8) {
	s1, r := sim.Step(t.rng.State())
	s2, c := sim.Step(s1)
	s3, x := sim.Step(s2)
	s4, y := sim.Step(s3)
	src3 := below(r>>11, t.src3T)
	src2 := below(r>>11, t.src2T)
	chain := below(c>>11, t.chainT)
	// Unchained, x is Dep1's draw and y is Dep2's; chained, x is Dep2's.
	x, y = x%44, y%44
	y ^= (x ^ y) & -chain
	d1 = uint16(1 + (1-chain)*(1+x))
	d2 = uint16(src2 * (1 + y))
	nsrc = uint8(1 + src2 + src3)
	extra := 1 - chain + src2 // draws after the two flips: 0, 1 or 2
	t.rng.SetState(s2 ^ (s2^s3)&-((extra+1)>>1) ^ (s3^s4)&-(extra>>1))
	return
}

// emit generates one application instruction of class op at the code walk's
// position — draws first, then the walk, which may emit a jump and draw for
// its target — and the excursions that fall due after it.
func (t *Tracer) emit(op Op, addr uint64) {
	d1, d2, nsrc := t.deps()
	t.put(t.pc(), addr, 0, op, false, d1, d2, nsrc)
	t.overheads()
}

// compute emits one ALU or FPU instruction.
func (t *Tracer) compute() {
	op := OpALU
	if t.fpuT != 0 {
		op = Op(below(t.rng.Uint64()>>11, t.fpuT)) // OpFPU when below
	}
	t.emit(op, 0)
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
		t.emit(OpFPU, 0)
	}
}

// memOp emits a load or store plus the surrounding ALU work.
func (t *Tracer) memOp(op Op, addr uint64) {
	for i := 0; i < t.prof.ALUPerMem; i++ {
		t.compute()
	}
	t.emit(op, addr)
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
	if uint(site) >= uint(t.nHot) { // most sites are hot blocks already
		block = site % t.nHot
	}
	pcv := userCodeBase + uint64(block)*blockBytes + 56
	t.put(pcv, 0, pcv+64, OpBranch, taken, 1, 0, 1)
	t.overheads()
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

// overheads counts one application instruction and injects the framework
// and GC excursions that fall due after it. Kernel-mode instructions do not
// count, nor do the excursions' own.
func (t *Tracer) overheads() {
	if t.inKernel {
		return
	}
	t.app++
	if t.app >= t.nextOver {
		t.excursions()
	}
}

// excursions runs what is due, the framework's before the collector's, and
// sets the next due count.
func (t *Tracer) excursions() {
	if t.app >= t.nextFW {
		t.nextFW += int64(t.prof.FrameworkEvery)
		t.frameworkBurst()
	}
	if t.app >= t.nextGC {
		t.nextGC += t.prof.GCEvery
		t.gcBurst()
	}
	t.nextOver = min(t.nextFW, t.nextGC)
}

// hotT is the framework's 92 % share of heap touches that stay in the hot
// metadata window.
var hotT = threshold(0.92)

// frameworkBurst walks cold code (virtual dispatch, serialisation, task
// bookkeeping) touching scattered heap metadata.
func (t *Tracer) frameworkBurst() {
	saveBlock, saveOff := t.curBlock, t.blockOff
	// Framework metadata (task state, serialisers, object headers) is a
	// small hot window of the heap; only a sliver of touches hit the tail.
	heap := uint64(t.heapBytes)
	hotWindow := min(heap, 64<<10)
	// Cold code walk: jump blocks every FrameworkJump instructions, with
	// Zipf-popular targets.
	nextJump := 0
	for i := 0; i < t.prof.FrameworkInstrs; i++ {
		if i == nextJump {
			nextJump += t.prof.FrameworkJump
			t.curBlock = t.coldZipf.Next()
			t.blockOff = 0
		}
		d1, d2, nsrc := t.deps()
		op, addr, target, taken := OpALU, uint64(0), uint64(0), false
		if i%6 == 5 && t.heapBytes > 0 {
			op = OpLoad
			window := heap
			if t.rng.Uint64()>>11 < hotT {
				window = hotWindow
			}
			addr = heapBase + t.rng.Uint64()%window
		}
		if i%13 == 12 {
			op = OpBranch
			// Structured: the same call sites take the same paths.
			taken = i%26 == 12
			target = userCodeBase + uint64(t.coldZipf.Next())*blockBytes
		}
		t.put(t.pcRaw(), addr, target, op, taken, d1, d2, nsrc)
	}
	t.curBlock, t.blockOff = saveBlock, saveOff
}

// gcBurst sweeps the heap sequentially, the stop-the-world mark/sweep
// phases of a managed runtime.
func (t *Tracer) gcBurst() {
	for i := 0; i < t.prof.GCInstrs; i++ {
		op, addr := OpALU, uint64(0)
		if i%2 != 0 && t.heapBytes > 0 {
			op = OpLoad
			addr = heapBase + uint64(t.heapGCPos)
			t.heapGCPos += 64
			if t.heapGCPos >= t.heapBytes {
				t.heapGCPos = 0
			}
		}
		t.put(t.pcRaw(), addr, 0, op, false, 1, 0, 1)
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
