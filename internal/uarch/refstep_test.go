package uarch

import "dcbench/internal/memtrace"

// This file is the reference oracle for the batch step loop: the
// per-instruction Run loop, step, dataAccess and instAccess exactly as they
// were before stepBatch replaced them (renamed ref*, otherwise verbatim).
// They run on the same Core struct and the same cache/TLB/predictor
// objects, so reflect.DeepEqual on the counter files of a refRun and a Run
// compares the two loops and nothing else (the reference still counts page
// walks itself; syncCacheCounters then overwrites them with the TLB
// hierarchies' own, equal, counts). Not an implementation: it exists only so
// the tests in oracle_test.go have something to agree with.

// RefRun exposes refRun to the external test package, which can import the
// workload registry (internal/core imports this package).
func (c *Core) RefRun(r memtrace.Reader) *Counters { return c.refRun(r) }

// RingGeometry is one of ringGeometries applied to DefaultConfig, exported
// for the same reason.
type RingGeometry struct {
	Name string
	Cfg  Config
}

// RingGeometries returns the default, odd-rings, tiny-rings and narrow
// machines.
func RingGeometries() []RingGeometry {
	out := make([]RingGeometry, len(ringGeometries))
	for i, g := range ringGeometries {
		out[i] = RingGeometry{Name: g.name, Cfg: DefaultConfig()}
		g.mut(&out[i].Cfg)
	}
	return out
}

// refDataAccess walks the D-side hierarchy at the given start cycle, returning
// the completion cycle.
func (c *Core) refDataAccess(addr uint64, start int64) int64 {
	tlbLat, walked := c.dtlb.Translate(addr)
	if walked {
		c.C.DTLBWalks++
	}
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

// refInstAccess walks the I-side hierarchy, returning added fetch latency.
// Sequential code misses are largely hidden by the L1I streaming
// prefetcher (as on Westmere): a miss on the line right after the previous
// miss costs only a short re-steer, though it still counts as a miss.
func (c *Core) refInstAccess(pc uint64) int64 {
	lat, walked := c.itlb.Translate(pc)
	if walked {
		c.C.ITLBWalks++
	}
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

// refRun consumes the whole trace and fills the counter file. If the config
// sets Warmup, counters cover only the post-warmup portion.
func (c *Core) refRun(r memtrace.Reader) *Counters {
	if c.runBuf == nil {
		c.runBuf = make([]memtrace.Inst, 8192)
	}
	buf := c.runBuf
	var warmed bool
	var base Counters
	var baseCycle int64
	for {
		n := r.Read(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			c.refStep(&buf[i])
			if !warmed && c.cfg.Warmup > 0 && c.C.Instructions >= c.cfg.Warmup {
				warmed = true
				c.syncCacheCounters()
				base = c.C
				baseCycle = c.commitPrev
			}
		}
	}
	c.C.Cycles = c.commitPrev + 1
	c.syncCacheCounters()
	if warmed {
		c.C = subtractCounters(c.C, base)
		c.C.Cycles = c.commitPrev - baseCycle
	}
	return &c.C
}

// refStep advances the model by one instruction.
func (c *Core) refStep(in *memtrace.Inst) {
	cfg := &c.cfg
	c.C.Instructions++
	if in.Kernel {
		c.C.KernelInstructions++
	}

	// ---- Fetch ----
	if c.frontCount >= cfg.FetchWidth {
		c.frontCycle++
		c.frontCount = 0
	}
	if line := in.PC >> 6; line != c.lastFetchLine {
		c.lastFetchLine = line
		if extra := c.refInstAccess(in.PC); extra > 0 {
			// The decoupled front end's fetch/decode queues absorb short
			// bubbles; only the excess starves rename.
			extra -= 8
			if extra > 0 {
				c.C.FetchStall += extra
				c.frontCycle += extra
				c.frontCount = 0
			}
		}
	}
	fetchTime := c.frontCycle
	c.frontCount++

	// ---- Rename (RAT) ----
	if c.renameTime < fetchTime {
		c.renameTime = fetchTime
		c.renameCnt = 0
		c.renameSrc = 0
	}
	if c.renameCnt >= cfg.RenameWidth {
		c.renameTime++
		c.renameCnt = 0
		c.renameSrc = 0
	}
	if c.renameSrc+int(in.NSrc) > cfg.RenameReadPorts && c.renameCnt > 0 {
		// Register read port conflict: the group closes early.
		c.renameTime++
		c.renameCnt = 0
		c.renameSrc = 0
	}
	c.renameCnt++
	c.renameSrc += int(in.NSrc)
	renameTime := c.renameTime

	// RAT stall accounting is occupancy-style, like the hardware
	// RAT_STALLS events: every architectural rename group whose register
	// read demand exceeds the ports is charged the excess cycles, whether
	// or not rename happened to be the critical path (stall counters
	// overlap; Section III-D).
	c.grpSrc += int(in.NSrc)
	c.grpN++
	if c.grpN >= cfg.RenameWidth {
		if c.grpSrc > cfg.RenameReadPorts {
			c.C.RATStall += int64(c.grpSrc - cfg.RenameReadPorts)
		}
		c.grpN, c.grpSrc = 0, 0
	}
	if in.NSrc >= 3 {
		// Three-source ops (flag merges, partial-register reads) insert a
		// RAT serialisation bubble on this class of core.
		c.C.RATStall++
	}

	// ---- Dispatch: ROB / RS / LQ / SQ availability ----
	// Every full resource is charged for the cycles it blocks, even when
	// several block simultaneously: hardware stall counters overlap, and
	// the paper normalises by the total (Section III-D).
	dispatch := renameTime
	consider := func(free int64, counter *int64) {
		if free > renameTime {
			*counter += free - renameTime
		}
		if free > dispatch {
			dispatch = free
		}
	}
	consider(c.commitRing[c.robCur], &c.C.ROBStall)
	consider(c.issueRing[c.rsCur], &c.C.RSStall)
	isLoad := in.Op == memtrace.OpLoad
	isStore := in.Op == memtrace.OpStore
	if isLoad {
		consider(c.loadRing[c.lqCur], &c.C.LoadBufStall)
	}
	if isStore {
		consider(c.storeRing[c.sqCur], &c.C.StoreBufStall)
	}
	// Back-pressure: a blocked dispatch holds the rename stage, so later
	// instructions measure their stalls from the caught-up point rather
	// than re-counting the same gap.
	if dispatch > c.renameTime {
		c.renameTime = dispatch
	}

	// ---- Ready: operand dependencies ----
	// depRing is a power of two, so the dependency lookback masks instead
	// of dividing (Dep <= idx is guaranteed by the guard, so the index
	// stays non-negative).
	ready := dispatch + 1
	if in.Dep1 > 0 && int64(in.Dep1) <= c.idx {
		if t := c.completeRing[(c.idx-int64(in.Dep1))&(depRing-1)]; t > ready {
			ready = t
		}
	}
	if in.Dep2 > 0 && int64(in.Dep2) <= c.idx {
		if t := c.completeRing[(c.idx-int64(in.Dep2))&(depRing-1)]; t > ready {
			ready = t
		}
	}

	// ---- Issue: width-limited ----
	issue := ready
	if w := c.issueWin[c.winCur]; issue <= w {
		issue = w + 1
	}
	c.issueWin[c.winCur] = issue
	// The RS entry is held from dispatch until issue.
	c.issueRing[c.rsCur] = issue

	// ---- Execute ----
	var complete int64
	switch in.Op {
	case memtrace.OpLoad:
		complete = c.refDataAccess(in.Addr, issue)
		c.loadRing[c.lqCur] = complete
		c.lqCur++
		if c.lqCur == len(c.loadRing) {
			c.lqCur = 0
		}
	case memtrace.OpStore:
		// Stores complete for dependents immediately; the cache write
		// happens at drain time, charged below against the SQ.
		complete = issue + 1
	case memtrace.OpFPU:
		complete = issue + int64(cfg.FPULat)
	case memtrace.OpBranch:
		complete = issue + int64(cfg.ALULat)
		c.C.Branches++
		pred := c.pred.Predict(in.PC)
		c.pred.Update(in.PC, in.Taken)
		if pred != in.Taken {
			c.C.BranchMispredicts++
			// Redirect: the front end refetches after resolution. The
			// wasted cycles show up as lost IPC, not as IFU stall events
			// (Figure 6 counts i-cache/iTLB fetch stalls separately from
			// speculation waste).
			redirect := complete + int64(cfg.MispredictPenalty)
			if redirect > c.frontCycle {
				c.frontCycle = redirect
				c.frontCount = 0
			}
		} else if in.Taken && !c.btb.Lookup(in.PC, in.Target) {
			// Correct direction but unknown target: short redirect.
			c.frontCycle += int64(cfg.BTBPenalty)
			c.frontCount = 0
		}
	default:
		complete = issue + int64(cfg.ALULat)
	}
	c.completeRing[c.idx&(depRing-1)] = complete

	// ---- Commit: in-order, width-limited ----
	commit := complete
	if commit <= c.commitPrev {
		commit = c.commitPrev
		c.commitCnt++
		if c.commitCnt >= cfg.CommitWidth {
			commit++
			c.commitCnt = 0
		}
	} else {
		c.commitCnt = 1
	}
	c.commitPrev = commit
	c.commitRing[c.robCur] = commit

	// Store drain: after commit, the store writes the cache, holding its
	// SQ entry until done. Drains retire in order.
	if isStore {
		drain := c.refDataAccess(in.Addr, commit)
		if drain < c.lastStoreDrain {
			drain = c.lastStoreDrain
		}
		c.lastStoreDrain = drain
		c.storeRing[c.sqCur] = drain
		c.sqCur++
		if c.sqCur == len(c.storeRing) {
			c.sqCur = 0
		}
	}
	c.idx++
	c.robCur++
	if c.robCur == len(c.commitRing) {
		c.robCur = 0
	}
	c.rsCur++
	if c.rsCur == len(c.issueRing) {
		c.rsCur = 0
	}
	c.winCur++
	if c.winCur == len(c.issueWin) {
		c.winCur = 0
	}
}
