// Package uarch is a trace-driven timing model of a modern superscalar
// out-of-order core — the paper's Xeon E5645 (Westmere, Table III) — with
// software performance counters standing in for the hardware MSRs the paper
// reads with perf.
//
// The model processes the instruction trace in program order, computing for
// every instruction its fetch, rename, dispatch, issue, completion and
// commit times under the structural constraints of the pipeline: fetch
// width and L1I/ITLB latency in the front end, rename width and register
// read ports at the RAT, and ROB / reservation station / load buffer /
// store buffer occupancy at dispatch, with issue width, operand
// dependencies, cache/TLB latencies, MSHR-limited memory-level parallelism
// and DRAM bandwidth in the back end. Blocked cycles are attributed to the
// limiting resource, reproducing the paper's stall breakdown methodology
// (Section III-D, Figure 6): stalls that overlap are counted per source,
// exactly as the hardware counters do.
package uarch

import (
	"encoding/binary"
	"hash/fnv"

	"dcbench/internal/memtrace"
	"dcbench/internal/uarch/bpred"
	"dcbench/internal/uarch/cache"
	"dcbench/internal/uarch/mmu"
)

// Config is the core's structural description. DefaultConfig matches the
// paper's Table III.
type Config struct {
	FetchWidth      int
	RenameWidth     int
	RenameReadPorts int
	IssueWidth      int
	CommitWidth     int

	ROB int
	RS  int
	LQ  int
	SQ  int

	ALULat int
	FPULat int

	// Cache geometry: size bytes / ways, 64-byte lines.
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	L3Size, L3Ways   int

	L1DLat, L2Lat, L3Lat, MemLat int

	ITLBEntries, DTLBEntries, L2TLBEntries, TLBWays int
	TLBL2Lat, WalkLat                               int

	MSHRs  int
	MemGap int // minimum cycles between DRAM transfers (bandwidth)

	MispredictPenalty int
	BTBPenalty        int
	BTBBits           uint

	// Warmup discards the first N instructions from the counter file —
	// caches, TLBs and predictors stay warm but counters restart — the
	// ramp-up methodology of the paper's Section III-D.
	Warmup int64

	// Predictor is the kind of the core's 14-bit tournament predictor; the
	// zero value trains the whole tournament.
	Predictor bpred.Kind
}

// ModelVersion identifies the simulator's behaviour, not its API: bump it
// whenever a change makes any workload's Counters differ at a fixed seed
// and Config. It is hashed into every Fingerprint, so bumping it atomically
// invalidates the sweep memo tables, the on-disk result store and
// dcserved's ETags — without it, a deploy that changes results would keep
// serving pre-deploy bytes out of warm stores and 304 revalidations.
const ModelVersion = 1

// Fingerprint hashes every simulation-relevant Config field (plus the
// package ModelVersion) into a stable 64-bit key, so sweep memos and
// result stores can recognise equivalent configurations: equal fingerprints
// produce identical simulations for identical traces. New Config fields
// must be folded in here. The predictor kind is one trailing byte, hashed
// only when it is not the default, so the default machine's fingerprint
// covers its structural fields alone.
func (cfg Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	// ModelVersion first: a simulator change invalidates every derived
	// cache (sweep memos, the persistent store, dcserved ETags) through
	// this one hash.
	binary.LittleEndian.PutUint64(buf[:], ModelVersion)
	h.Write(buf[:])
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, v := range []int{
		cfg.FetchWidth, cfg.RenameWidth, cfg.RenameReadPorts, cfg.IssueWidth,
		cfg.CommitWidth, cfg.ROB, cfg.RS, cfg.LQ, cfg.SQ, cfg.ALULat,
		cfg.FPULat, cfg.L1ISize, cfg.L1IWays, cfg.L1DSize, cfg.L1DWays,
		cfg.L2Size, cfg.L2Ways, cfg.L3Size, cfg.L3Ways, cfg.L1DLat, cfg.L2Lat,
		cfg.L3Lat, cfg.MemLat, cfg.ITLBEntries, cfg.DTLBEntries,
		cfg.L2TLBEntries, cfg.TLBWays, cfg.TLBL2Lat, cfg.WalkLat, cfg.MSHRs,
		cfg.MemGap, cfg.MispredictPenalty, cfg.BTBPenalty, int(cfg.BTBBits),
	} {
		put(int64(v))
	}
	put(cfg.Warmup)
	if cfg.Predictor != bpred.KindTournament {
		h.Write([]byte{byte(cfg.Predictor)})
	}
	return h.Sum64()
}

// DefaultConfig returns the Table III machine: 4-wide Westmere-class core,
// 32 KB L1s, 256 KB L2, 12 MB L3, 64-entry L1 TLBs with a 512-entry L2 TLB.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		RenameWidth:     4,
		RenameReadPorts: 6,
		IssueWidth:      6,
		CommitWidth:     4,
		ROB:             128,
		RS:              36,
		LQ:              48,
		SQ:              32,
		ALULat:          1,
		FPULat:          3,
		L1ISize:         32 << 10, L1IWays: 4,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 12 << 20, L3Ways: 16,
		L1DLat: 4, L2Lat: 10, L3Lat: 38, MemLat: 180,
		ITLBEntries: 64, DTLBEntries: 64, L2TLBEntries: 512, TLBWays: 4,
		TLBL2Lat: 7, WalkLat: 120,
		MSHRs: 10, MemGap: 8,
		MispredictPenalty: 15,
		BTBPenalty:        6,
		BTBBits:           11,
	}
}

// Counters is the performance counter file after a run.
type Counters struct {
	Cycles             int64
	Instructions       int64
	KernelInstructions int64

	Branches          int64
	BranchMispredicts int64

	L1IAccesses, L1IMisses int64
	L1DAccesses, L1DMisses int64
	L2Accesses, L2Misses   int64
	L3Accesses, L3Misses   int64

	ITLBWalks, DTLBWalks int64

	// Stall cycle attribution (Figure 6 categories).
	FetchStall    int64
	RATStall      int64
	LoadBufStall  int64
	StoreBufStall int64
	RSStall       int64
	ROBStall      int64
}

// IPC returns instructions per cycle.
func (c *Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// KernelShare returns the kernel-mode instruction fraction (Figure 4).
func (c *Counters) KernelShare() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.KernelInstructions) / float64(c.Instructions)
}

// pki scales a counter to events per kilo-instruction.
func (c *Counters) pki(events int64) float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(c.Instructions)
}

// L1IMPKI is Figure 7's metric.
func (c *Counters) L1IMPKI() float64 { return c.pki(c.L1IMisses) }

// L2MPKI is Figure 9's metric.
func (c *Counters) L2MPKI() float64 { return c.pki(c.L2Misses) }

// L3HitRatio is Figure 10's metric: the share of L2 misses that hit in L3.
func (c *Counters) L3HitRatio() float64 {
	if c.L3Accesses == 0 {
		return 0
	}
	return float64(c.L3Accesses-c.L3Misses) / float64(c.L3Accesses)
}

// ITLBWalksPKI is Figure 8's metric.
func (c *Counters) ITLBWalksPKI() float64 { return c.pki(c.ITLBWalks) }

// DTLBWalksPKI is Figure 11's metric.
func (c *Counters) DTLBWalksPKI() float64 { return c.pki(c.DTLBWalks) }

// BranchMispredictRatio is Figure 12's metric.
func (c *Counters) BranchMispredictRatio() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.BranchMispredicts) / float64(c.Branches)
}

// StallBreakdown returns the six stall categories normalised to their sum,
// in Figure 6's order: fetch, RAT, load buffer, RS, store buffer, ROB.
func (c *Counters) StallBreakdown() [6]float64 {
	v := [6]int64{c.FetchStall, c.RATStall, c.LoadBufStall, c.RSStall, c.StoreBufStall, c.ROBStall}
	var total int64
	for _, x := range v {
		total += x
	}
	var out [6]float64
	if total == 0 {
		return out
	}
	for i, x := range v {
		out[i] = float64(x) / float64(total)
	}
	return out
}

// Core is one simulated core plus its private cache/TLB hierarchy.
type Core struct {
	cfg Config

	l1i, l1d, l2, l3 *cache.Cache
	itlb, dtlb       mmu.Hierarchy
	pred             *bpred.Tournament
	btb              *bpred.BTB

	C Counters

	// Program-order rings of per-instruction times.
	completeRing [depRing]int64 // completion times for dependency lookup
	commitRing   []int64        // ROB slots: commit times
	issueRing    []int64        // RS slots: issue times
	loadRing     []int64        // LQ slots: load completion times
	storeRing    []int64        // SQ slots: store drain times
	mshrRing     []int64        // outstanding miss completion times
	issueWin     []int64        // recent issue times for width throttling

	// Ring cursors: each ring is walked with an incrementing wrap-around
	// cursor instead of a per-instruction `%` of the running index — the
	// divides were the hottest scalar ops in the step loop's profile. idx
	// still counts instructions (dependency distances need it); the cursors
	// track idx (or the load/store/miss counts) mod their ring length.
	idx            int64
	robCur, rsCur  int
	winCur         int
	lqCur, sqCur   int
	mshrCur        int
	lastStoreDrain int64

	frontCycle    int64
	frontCount    int
	renameTime    int64
	renameCnt     int
	renameSrc     int
	grpN          int
	grpSrc        int
	commitPrev    int64
	commitCnt     int
	lastFetchLine uint64
	lastIMissLine uint64
	memFree       int64

	runBuf []memtrace.Inst
}

const depRing = 64

// NewCore builds a core from cfg.
func NewCore(cfg Config) *Core {
	c := new(Core)
	c.Reset(cfg)
	return c
}

// sameGeometry reports whether cfg allocates the same array shapes as the
// core's current configuration, so Reset can recycle them in place.
func (c *Core) sameGeometry(cfg Config) bool {
	o := c.cfg
	return cfg.L1ISize == o.L1ISize && cfg.L1IWays == o.L1IWays &&
		cfg.L1DSize == o.L1DSize && cfg.L1DWays == o.L1DWays &&
		cfg.L2Size == o.L2Size && cfg.L2Ways == o.L2Ways &&
		cfg.L3Size == o.L3Size && cfg.L3Ways == o.L3Ways &&
		cfg.ITLBEntries == o.ITLBEntries && cfg.DTLBEntries == o.DTLBEntries &&
		cfg.L2TLBEntries == o.L2TLBEntries && cfg.TLBWays == o.TLBWays &&
		cfg.ROB == o.ROB && cfg.RS == o.RS && cfg.LQ == o.LQ && cfg.SQ == o.SQ &&
		cfg.MSHRs == o.MSHRs && cfg.IssueWidth == o.IssueWidth &&
		cfg.BTBBits == o.BTBBits
}

// Reset returns the core to a fresh core's state under cfg, reusing
// the existing cache, TLB, predictor and ring allocations whenever the
// geometry is unchanged — the default machine carries 1.6 MB of simulated
// tag state (the L3's 196 608 tags of 8 bytes are 1.5 MB of it), so a
// recycled core clears it in place instead of reallocating it. A geometry
// change (or a zero Core) allocates afresh. The core is then rebuilt as one
// struct value that keeps only those allocations: every other field is
// zero by construction, and cfg's warmup, predictor kind and latencies take
// effect. Runs on a reset core are bit-identical to runs on a fresh core;
// reset_test pins that down.
func (c *Core) Reset(cfg Config) {
	if c.l1i != nil && c.sameGeometry(cfg) {
		c.l1i.Reset()
		c.l1d.Reset()
		c.l2.Reset()
		c.l3.Reset()
		c.itlb.L1.Reset()
		c.dtlb.L1.Reset()
		c.itlb.L2.Reset() // shared by both hierarchies: reset exactly once
		c.pred.Reset()
		c.btb.Reset()
		clear(c.commitRing)
		clear(c.issueRing)
		clear(c.loadRing)
		clear(c.storeRing)
		clear(c.mshrRing)
		clear(c.issueWin)
	} else {
		c.l1i = cache.New("L1I", cfg.L1ISize, cfg.L1IWays, 64)
		c.l1d = cache.New("L1D", cfg.L1DSize, cfg.L1DWays, 64)
		c.l2 = cache.New("L2", cfg.L2Size, cfg.L2Ways, 64)
		c.l3 = cache.New("L3", cfg.L3Size, cfg.L3Ways, 64)
		c.itlb.L1 = mmu.NewTLB(cfg.ITLBEntries, cfg.TLBWays)
		c.dtlb.L1 = mmu.NewTLB(cfg.DTLBEntries, cfg.TLBWays)
		c.itlb.L2 = mmu.NewTLB(cfg.L2TLBEntries, cfg.TLBWays)
		c.pred = bpred.NewTournament(14)
		c.btb = bpred.NewBTB(cfg.BTBBits)
		c.commitRing = make([]int64, cfg.ROB)
		c.issueRing = make([]int64, cfg.RS)
		c.loadRing = make([]int64, cfg.LQ)
		c.storeRing = make([]int64, cfg.SQ)
		c.mshrRing = make([]int64, cfg.MSHRs)
		c.issueWin = make([]int64, cfg.IssueWidth)
	}
	c.pred.Kind = cfg.Predictor
	*c = Core{
		cfg: cfg, l1i: c.l1i, l1d: c.l1d, l2: c.l2, l3: c.l3, pred: c.pred, btb: c.btb,
		itlb:       mmu.Hierarchy{L1: c.itlb.L1, L2: c.itlb.L2, WalkLatency: cfg.WalkLat, L2Latency: cfg.TLBL2Lat},
		dtlb:       mmu.Hierarchy{L1: c.dtlb.L1, L2: c.itlb.L2, WalkLatency: cfg.WalkLat, L2Latency: cfg.TLBL2Lat},
		commitRing: c.commitRing, issueRing: c.issueRing, loadRing: c.loadRing,
		storeRing: c.storeRing, mshrRing: c.mshrRing, issueWin: c.issueWin, runBuf: c.runBuf,
	}
}

// dataAccess walks the D-side hierarchy at the given start cycle, returning
// the completion cycle.
func (c *Core) dataAccess(addr uint64, start int64) int64 {
	tlbLat, _ := c.dtlb.Translate(addr)
	start += int64(tlbLat)
	if c.l1d.Access(addr) {
		return start + int64(c.cfg.L1DLat)
	}
	// L1D miss: take an MSHR (FIFO approximation of the miss queue).
	slot := c.mshrCur
	if c.mshrRing[slot] > start {
		start = c.mshrRing[slot]
	}
	var done int64
	switch {
	case c.l2.Access(addr):
		done = start + int64(c.cfg.L2Lat)
	case c.l3.Access(addr):
		done = start + int64(c.cfg.L3Lat)
	default:
		// DRAM: respect the bandwidth gap between transfers.
		if start < c.memFree {
			start = c.memFree
		}
		c.memFree = start + int64(c.cfg.MemGap)
		done = start + int64(c.cfg.MemLat)
	}
	c.mshrRing[slot] = done
	c.mshrCur++
	if c.mshrCur == len(c.mshrRing) {
		c.mshrCur = 0
	}
	return done
}

// instAccess walks the I-side hierarchy, returning added fetch latency.
// Sequential code misses are largely hidden by the L1I streaming
// prefetcher (as on Westmere): a miss on the line right after the previous
// miss costs only a short re-steer, though it still counts as a miss.
func (c *Core) instAccess(pc uint64) int64 {
	lat, _ := c.itlb.Translate(pc)
	extra := int64(lat)
	if !c.l1i.Access(pc) {
		line := pc >> 6
		sequential := line == c.lastIMissLine+1
		c.lastIMissLine = line
		if sequential {
			// The prefetcher still moved the line up the hierarchy.
			if !c.l2.Access(pc) {
				c.l3.Access(pc)
			}
			return extra + 2
		}
		switch {
		case c.l2.Access(pc):
			extra += int64(c.cfg.L2Lat)
		case c.l3.Access(pc):
			extra += int64(c.cfg.L3Lat)
		default:
			if c.memFree > c.frontCycle {
				extra += c.memFree - c.frontCycle
			}
			c.memFree = c.frontCycle + extra + int64(c.cfg.MemGap)
			extra += int64(c.cfg.MemLat)
		}
	}
	return extra
}

// Run consumes the whole trace and fills the counter file. If the config
// sets Warmup, counters cover only the post-warmup portion (all of the trace
// when it ends before the warm-up does). A reader that lends its batches
// (memtrace.BatchReader) is stepped in place; any other is read into the
// core's own buffer.
func (c *Core) Run(r memtrace.Reader) *Counters {
	br, lends := r.(memtrace.BatchReader)
	if !lends && c.runBuf == nil {
		c.runBuf = make([]memtrace.Inst, 8192)
	}
	// toWarm is the number of instructions still to step before the
	// counters restart; 0 when there is no boundary (left) to cross. The
	// batch holding the boundary is split there, so the step loop itself
	// never tests for it.
	var toWarm int64
	if c.cfg.Warmup > 0 {
		toWarm = max(c.cfg.Warmup-c.C.Instructions, 1)
	}
	var warmed bool
	var base Counters
	var baseCycle int64
	for {
		var batch []memtrace.Inst
		if lends {
			batch = br.NextBatch()
		} else {
			batch = c.runBuf[:r.Read(c.runBuf)]
		}
		if len(batch) == 0 {
			break
		}
		if n := int64(len(batch)); toWarm > n {
			toWarm -= n
		} else if toWarm > 0 {
			c.stepBatch(batch[:toWarm])
			batch, toWarm = batch[toWarm:], 0
			warmed = true
			c.syncCacheCounters()
			base = c.C
			baseCycle = c.commitPrev
		}
		c.stepBatch(batch)
	}
	c.C.Cycles = c.commitPrev + 1
	c.syncCacheCounters()
	if warmed {
		c.C = subtractCounters(c.C, base)
		c.C.Cycles = c.commitPrev - baseCycle
	}
	return &c.C
}

// subtractCounters returns a-b field-wise (Cycles handled by the caller).
func subtractCounters(a, b Counters) Counters {
	return Counters{
		Cycles:             a.Cycles,
		Instructions:       a.Instructions - b.Instructions,
		KernelInstructions: a.KernelInstructions - b.KernelInstructions,
		Branches:           a.Branches - b.Branches,
		BranchMispredicts:  a.BranchMispredicts - b.BranchMispredicts,
		L1IAccesses:        a.L1IAccesses - b.L1IAccesses,
		L1IMisses:          a.L1IMisses - b.L1IMisses,
		L1DAccesses:        a.L1DAccesses - b.L1DAccesses,
		L1DMisses:          a.L1DMisses - b.L1DMisses,
		L2Accesses:         a.L2Accesses - b.L2Accesses,
		L2Misses:           a.L2Misses - b.L2Misses,
		L3Accesses:         a.L3Accesses - b.L3Accesses,
		L3Misses:           a.L3Misses - b.L3Misses,
		ITLBWalks:          a.ITLBWalks - b.ITLBWalks,
		DTLBWalks:          a.DTLBWalks - b.DTLBWalks,
		FetchStall:         a.FetchStall - b.FetchStall,
		RATStall:           a.RATStall - b.RATStall,
		LoadBufStall:       a.LoadBufStall - b.LoadBufStall,
		StoreBufStall:      a.StoreBufStall - b.StoreBufStall,
		RSStall:            a.RSStall - b.RSStall,
		ROBStall:           a.ROBStall - b.ROBStall,
	}
}

// syncCacheCounters copies the counts the caches and TLB hierarchies keep
// themselves into the counter file.
func (c *Core) syncCacheCounters() {
	c.C.ITLBWalks, c.C.DTLBWalks = c.itlb.Walks, c.dtlb.Walks
	c.C.L1IAccesses, c.C.L1IMisses = c.l1i.Accesses, c.l1i.Misses
	c.C.L1DAccesses, c.C.L1DMisses = c.l1d.Accesses, c.l1d.Misses
	c.C.L2Accesses, c.C.L2Misses = c.l2.Accesses, c.l2.Misses
	c.C.L3Accesses, c.C.L3Misses = c.l3.Accesses, c.l3.Misses
}

// mask returns -1 (every bit set) when b holds and 0 otherwise.
func mask(b bool) int64 {
	var m int64
	if b {
		m = -1
	}
	return m
}

// stepBatch advances the model over buf, one instruction at a time in
// program order. What every instruction reads and writes on its way through
// the pipeline — the ring slices and their cursors, the front-end, rename
// and commit state, the event and stall counts — is held in locals for the
// length of the batch and written back once at its end, so it is not
// reloaded through c after every ring store. What the memory hierarchy walks
// own (memFree, the MSHR ring, lastIMissLine) stays in the struct, and the
// caches and TLBs count their own events; instAccess also reads frontCycle
// from the struct, so it is stored just before that (rare) call.
//
// Outcomes the host cannot predict — which resource blocks dispatch, whether
// a dependency is in range, whether issue width binds, an op's latency,
// whether commit joins or closes a group — are computed as selects, not
// branches. A mask is 0 or -1: x&m keeps x where the condition holds and is
// 0 where it does not. Every time in the model is ≥ 0, so a masked-out time
// never wins a max against dispatch or ready. Only the Load and Branch
// paths (a memory walk, a predictor), the store drain and the periodic
// fetch and rename steps branch.
func (c *Core) stepBatch(buf []memtrace.Inst) {
	var (
		cfg  = &c.cfg
		pred = c.pred

		completeRing = &c.completeRing
		commitRing   = c.commitRing
		issueRing    = c.issueRing
		loadRing     = c.loadRing
		storeRing    = c.storeRing
		issueWin     = c.issueWin

		idx                    = c.idx
		robCur, rsCur, winCur  = c.robCur, c.rsCur, c.winCur
		lqCur, sqCur           = c.lqCur, c.sqCur
		frontCycle, frontCount = c.frontCycle, c.frontCount
		lastFetchLine          = c.lastFetchLine
		renameTime             = c.renameTime
		renameCnt, renameSrc   = c.renameCnt, c.renameSrc
		grpN, grpSrc           = c.grpN, c.grpSrc
		commitPrev, commitCnt  = c.commitPrev, c.commitCnt
		lastStoreDrain         = c.lastStoreDrain

		kernel, branches, mispredicts       int64
		fetchStall, ratStall                int64
		robStall, rsStall, lbStall, sbStall int64
	)
	// Execute latency by op. Every op past OpBranch executes as an ALU op; a
	// load's latency is its memory access, set on the Load path.
	opLat := [...]int64{
		memtrace.OpALU:        int64(cfg.ALULat),
		memtrace.OpFPU:        int64(cfg.FPULat),
		memtrace.OpStore:      1,
		memtrace.OpBranch:     int64(cfg.ALULat),
		memtrace.OpBranch + 1: int64(cfg.ALULat),
	}

	for i := range buf {
		in := &buf[i]
		kernel -= mask(in.Kernel)

		// ---- Fetch ----
		if frontCount >= cfg.FetchWidth {
			frontCycle++
			frontCount = 0
		}
		if line := in.PC >> 6; line != lastFetchLine {
			lastFetchLine = line
			c.frontCycle = frontCycle
			if extra := c.instAccess(in.PC); extra > 0 {
				// The decoupled front end's fetch/decode queues absorb short
				// bubbles; only the excess starves rename.
				extra -= 8
				if extra > 0 {
					fetchStall += extra
					frontCycle += extra
					frontCount = 0
				}
			}
		}
		fetchTime := frontCycle
		frontCount++

		// ---- Rename (RAT) ----
		nsrc := int(in.NSrc)
		if renameTime < fetchTime {
			renameTime = fetchTime
			renameCnt = 0
			renameSrc = 0
		}
		if renameCnt >= cfg.RenameWidth {
			renameTime++
			renameCnt = 0
			renameSrc = 0
		}
		if renameSrc+nsrc > cfg.RenameReadPorts && renameCnt > 0 {
			// Register read port conflict: the group closes early.
			renameTime++
			renameCnt = 0
			renameSrc = 0
		}
		renameCnt++
		renameSrc += nsrc
		renamed := renameTime

		// RAT stall accounting is occupancy-style, like the hardware
		// RAT_STALLS events: every architectural rename group whose register
		// read demand exceeds the ports is charged the excess cycles, whether
		// or not rename happened to be the critical path (stall counters
		// overlap; Section III-D).
		grpSrc += nsrc
		grpN++
		if grpN >= cfg.RenameWidth {
			ratStall += int64(max(grpSrc-cfg.RenameReadPorts, 0))
			grpN, grpSrc = 0, 0
		}
		// Three-source ops (flag merges, partial-register reads) insert a
		// RAT serialisation bubble on this class of core.
		ratStall -= mask(nsrc >= 3)

		// ---- Dispatch: ROB / RS / LQ / SQ availability ----
		// Every full resource is charged for the cycles it blocks, even when
		// several block simultaneously: hardware stall counters overlap, and
		// the paper normalises by the total (Section III-D). The LQ counts
		// for loads only and the SQ for stores only.
		op := in.Op
		robFree := commitRing[robCur]
		rsFree := issueRing[rsCur]
		lqFree := loadRing[lqCur] & mask(op == memtrace.OpLoad)
		sqFree := storeRing[sqCur] & mask(op == memtrace.OpStore)
		robStall += max(robFree-renamed, 0)
		rsStall += max(rsFree-renamed, 0)
		lbStall += max(lqFree-renamed, 0)
		sbStall += max(sqFree-renamed, 0)
		dispatch := max(renamed, robFree, rsFree, lqFree, sqFree)
		// Back-pressure: a blocked dispatch holds the rename stage, so later
		// instructions measure their stalls from the caught-up point rather
		// than re-counting the same gap.
		renameTime = dispatch

		// ---- Ready: operand dependencies ----
		// depRing is a power of two, so the dependency lookback masks instead
		// of dividing. Both producers are read whatever their distance; a
		// distance outside 0 < d <= idx sets the sign bit of d-1 or idx-d,
		// which masks its read to 0.
		d1, d2 := int64(in.Dep1), int64(in.Dep2)
		ready := max(dispatch+1,
			completeRing[(idx-d1)&(depRing-1)]&^(((d1-1)|(idx-d1))>>63),
			completeRing[(idx-d2)&(depRing-1)]&^(((d2-1)|(idx-d2))>>63))

		// ---- Issue: width-limited ----
		issue := max(ready, issueWin[winCur]+1)
		issueWin[winCur] = issue
		// The RS entry is held from dispatch until issue.
		issueRing[rsCur] = issue

		// ---- Execute ----
		// Stores complete for dependents immediately; the cache write happens
		// at drain time, charged below against the SQ.
		complete := issue + opLat[min(op, memtrace.OpBranch+1)]
		if op == memtrace.OpLoad {
			complete = c.dataAccess(in.Addr, issue)
			loadRing[lqCur] = complete
			lqCur++
			if lqCur == len(loadRing) {
				lqCur = 0
			}
		} else if op == memtrace.OpBranch {
			branches++
			if pred.PredictUpdate(in.PC, in.Taken) != in.Taken {
				mispredicts++
				// Redirect: the front end refetches after resolution. The
				// wasted cycles show up as lost IPC, not as IFU stall events
				// (Figure 6 counts i-cache/iTLB fetch stalls separately from
				// speculation waste).
				if redirect := complete + int64(cfg.MispredictPenalty); redirect > frontCycle {
					frontCycle = redirect
					frontCount = 0
				}
			} else if in.Taken && !c.btb.Lookup(in.PC, in.Target) {
				// Correct direction but unknown target: short redirect.
				frontCycle += int64(cfg.BTBPenalty)
				frontCount = 0
			}
		}
		completeRing[idx&(depRing-1)] = complete

		// ---- Commit: in-order, width-limited ----
		// An op complete by the previous commit joins that group (joins is
		// -1) and commits with it, one cycle later if it fills the group;
		// any other op opens a group of one at its own completion.
		joins := ^((commitPrev - complete) >> 63)
		cnt := commitCnt&int(joins) + 1
		full := joins & mask(cnt >= cfg.CommitWidth)
		commit := max(complete, commitPrev) - full
		commitCnt = cnt &^ int(full)
		commitPrev = commit
		commitRing[robCur] = commit

		// Store drain: after commit, the store writes the cache, holding its
		// SQ entry until done. Drains retire in order.
		if op == memtrace.OpStore {
			drain := max(c.dataAccess(in.Addr, commit), lastStoreDrain)
			lastStoreDrain = drain
			storeRing[sqCur] = drain
			sqCur++
			if sqCur == len(storeRing) {
				sqCur = 0
			}
		}
		idx++
		robCur++
		if robCur == len(commitRing) {
			robCur = 0
		}
		rsCur++
		if rsCur == len(issueRing) {
			rsCur = 0
		}
		winCur++
		if winCur == len(issueWin) {
			winCur = 0
		}
	}

	c.idx = idx
	c.robCur, c.rsCur, c.winCur = robCur, rsCur, winCur
	c.lqCur, c.sqCur = lqCur, sqCur
	c.frontCycle, c.frontCount = frontCycle, frontCount
	c.lastFetchLine = lastFetchLine
	c.renameTime, c.renameCnt, c.renameSrc = renameTime, renameCnt, renameSrc
	c.grpN, c.grpSrc = grpN, grpSrc
	c.commitPrev, c.commitCnt = commitPrev, commitCnt
	c.lastStoreDrain = lastStoreDrain
	c.C.Instructions += int64(len(buf))
	c.C.KernelInstructions += kernel
	c.C.Branches += branches
	c.C.BranchMispredicts += mispredicts
	c.C.FetchStall += fetchStall
	c.C.RATStall += ratStall
	c.C.ROBStall += robStall
	c.C.RSStall += rsStall
	c.C.LoadBufStall += lbStall
	c.C.StoreBufStall += sbStall
}
