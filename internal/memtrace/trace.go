// Package memtrace defines the instruction trace that couples workload
// models to the out-of-order core simulator, and the Tracer that workload
// adapters drive while running their real algorithms.
//
// The Tracer owns three models the paper's analysis hinges on:
//
//   - a code layout model: instructions walk basic blocks inside an
//     application code region whose footprint is a per-workload parameter —
//     small for SPEC/HPCC kernels, hundreds of KBs to MBs for JVM/Hadoop
//     data analysis stacks and service stacks, which is what drives the L1I
//     and ITLB behaviour of Figures 7 and 8;
//   - a framework/GC overhead model: periodic excursions into the cold part
//     of the code region (the "big binary from high-level languages and
//     third-party libraries" of Section IV-C) plus heap-sweeping bursts;
//   - a kernel model: Syscall emits kernel-mode instruction blocks with
//     their own code region and buffer-copy memory traffic, producing the
//     user/kernel split of Figure 4.
//
// Memory addresses come from a virtual allocator; adapters express their
// algorithm's genuine access pattern (sequential scans, pointer chases,
// working-set reuse) against those addresses while the actual computation
// runs alongside to supply data-dependent branch outcomes.
package memtrace

// Op is an instruction class.
type Op uint8

// Instruction classes.
const (
	OpALU Op = iota
	OpFPU
	OpLoad
	OpStore
	OpBranch
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpFPU:
		return "fpu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return "?"
	}
}

// Inst is one dynamic instruction.
type Inst struct {
	PC     uint64 // virtual instruction address
	Addr   uint64 // memory address (loads/stores)
	Target uint64 // branch target (branches)
	Dep1   uint16 // distance back to the first producer; 0 = none
	Dep2   uint16 // distance back to the second producer; 0 = none
	Op     Op
	Taken  bool // branch outcome
	Kernel bool // kernel-mode instruction
	NSrc   uint8
}

// Reader streams instructions in batches.
type Reader interface {
	// Read fills buf, returning the number of instructions produced;
	// 0 means end of trace.
	Read(buf []Inst) int
}

// BatchReader is optionally implemented by Readers that can lend their own
// storage instead of copying 32 bytes per instruction into the caller's.
type BatchReader interface {
	// NextBatch returns the next run of instructions, empty at end of
	// trace. The slice is only lent: it is valid, and must not be written
	// to, until the next NextBatch or Read call on the same reader.
	NextBatch() []Inst
}

// sliceReader replays an in-memory trace (used by tests).
type sliceReader struct {
	insts []Inst
	pos   int
}

// NewSliceReader wraps a materialised trace in a Reader.
func NewSliceReader(insts []Inst) Reader { return &sliceReader{insts: insts} }

// Read implements Reader.
func (r *sliceReader) Read(buf []Inst) int {
	n := copy(buf, r.insts[r.pos:])
	r.pos += n
	return n
}

// NextBatch implements BatchReader: the rest of the trace, as is.
func (r *sliceReader) NextBatch() []Inst {
	b := r.insts[r.pos:]
	r.pos = len(r.insts)
	return b
}

// Collect drains a reader into memory (tests and small traces only). The
// output is allocated at max up front and the reader decodes directly into
// it — no intermediate batch, no append re-copies.
func Collect(r Reader, max int) []Inst {
	out := make([]Inst, max)
	n := 0
	for n < max {
		m := r.Read(out[n:])
		if m == 0 {
			break
		}
		n += m
	}
	return out[:n]
}
