package core

import (
	"dcbench/internal/memtrace"
	"dcbench/internal/suites/hpcc"
	"dcbench/internal/suites/service"
	"dcbench/internal/suites/speccpu"
)

// serviceProfile is the shared stack model of the service workloads:
// an even larger code footprint than the analysis stacks (full server
// stacks: JVM/C++ server + TLS + kernel paths), busier cold-code
// excursions per request, and the operand/register pressure that shows up
// as RAT-dominated stalls in the paper's Figure 6.
func serviceProfile(seed uint64, codeKB int) memtrace.Profile {
	return memtrace.Profile{
		Seed:            seed,
		CodeKB:          codeKB,
		HotCodeKB:       24,
		ColdJumpP:       0.10,
		KernelKB:        512,
		BlockLen:        5,
		FrameworkEvery:  250,
		FrameworkInstrs: 160,
		GCEvery:         300_000,
		GCInstrs:        5_000,
		HeapMB:          4,
		ALUPerMem:       3,
		ChainProb:       0.35,
		NSrc2P:          0.35,
		NSrc3P:          0.50,
	}
}

// nativeProfile is the statically compiled, small-binary model shared by
// SPEC CPU and HPCC: hot loops that fit in the L1I, no framework, no GC.
func nativeProfile(seed uint64, codeKB int, fpu float64) memtrace.Profile {
	return memtrace.Profile{
		Seed:      seed,
		CodeKB:    codeKB,
		HotCodeKB: codeKB,
		KernelKB:  192,
		FPUShare:  fpu,
		ALUPerMem: 2,
		ChainProb: 0.30,
		NSrc2P:    0.30,
	}
}

// Registry returns the paper's 26 evaluation workloads in Figure 3's
// order: the eleven data analysis workloads, the five CloudSuite
// workloads, the SPEC suites, and the seven HPCC benchmarks. The slice and
// its entries are built once and shared by every caller: read-only. A
// caller that needs a variant copies the entry (or its Profile) first.
func Registry() []*Workload { return registry }

var registry = buildRegistry()

// buildRegistry builds the registry's entries, closures included.
func buildRegistry() []*Workload {
	return []*Workload{
		// --- DCBench data analysis (Table I) ---
		{
			Name: "Naive Bayes", Suite: "DCBench", Class: DataAnalysis,
			Profile: func() memtrace.Profile {
				p := daProfile(101)
				// The paper notes Bayes is the outlier: the smallest
				// instruction footprint and I-side pressure of the class.
				p.CodeKB = 128
				p.HotCodeKB = 20
				p.FrameworkEvery = 1500
				p.ChainProb = 0.75 // dependent probe chains
				return p
			}(),
			Gen:   traceNaiveBayes,
			Paper: PaperRef{IPC: 0.52, KernelPct: 3, L1IMPKI: 6, ITLBWalksPKI: 0.02, L2MPKI: 18, L3HitPct: 80, DTLBWalksPKI: 2.0, BranchMispPct: 2.0},
		},
		{
			Name: "SVM", Suite: "DCBench", Class: DataAnalysis,
			Profile: func() memtrace.Profile {
				p := daProfile(102)
				p.FPUShare = 0.2
				return p
			}(),
			Gen:   traceSVM,
			Paper: PaperRef{IPC: 0.85, KernelPct: 3, L1IMPKI: 20, ITLBWalksPKI: 0.12, L2MPKI: 8, L3HitPct: 88, DTLBWalksPKI: 0.4, BranchMispPct: 1.5},
		},
		{
			Name: "Grep", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(103),
			Gen:     traceGrep,
			Paper:   PaperRef{IPC: 0.90, KernelPct: 5, L1IMPKI: 22, ITLBWalksPKI: 0.15, L2MPKI: 8, L3HitPct: 88, DTLBWalksPKI: 0.3, BranchMispPct: 1.5},
		},
		{
			Name: "WordCount", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(104),
			Gen:     traceWordCount,
			Paper:   PaperRef{IPC: 0.85, KernelPct: 3, L1IMPKI: 25, ITLBWalksPKI: 0.15, L2MPKI: 10, L3HitPct: 85, DTLBWalksPKI: 0.4, BranchMispPct: 2.0},
		},
		{
			Name: "K-means", Suite: "DCBench", Class: DataAnalysis,
			Profile: func() memtrace.Profile {
				p := daProfile(105)
				p.FPUShare = 0.25
				return p
			}(),
			Gen:   traceKMeans,
			Paper: PaperRef{IPC: 0.95, KernelPct: 2, L1IMPKI: 18, ITLBWalksPKI: 0.10, L2MPKI: 6, L3HitPct: 88, DTLBWalksPKI: 0.3, BranchMispPct: 1.0},
		},
		{
			Name: "Fuzzy K-means", Suite: "DCBench", Class: DataAnalysis,
			Profile: func() memtrace.Profile {
				p := daProfile(106)
				p.FPUShare = 0.35
				return p
			}(),
			Gen:   traceFuzzyKMeans,
			Paper: PaperRef{IPC: 0.90, KernelPct: 2, L1IMPKI: 20, ITLBWalksPKI: 0.10, L2MPKI: 8, L3HitPct: 88, DTLBWalksPKI: 0.3, BranchMispPct: 1.0},
		},
		{
			Name: "PageRank", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(107),
			Gen:     tracePageRank,
			Paper:   PaperRef{IPC: 0.70, KernelPct: 4, L1IMPKI: 28, ITLBWalksPKI: 0.20, L2MPKI: 15, L3HitPct: 85, DTLBWalksPKI: 0.6, BranchMispPct: 2.5},
		},
		{
			Name: "Sort", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(108),
			Gen:     traceSort,
			Paper:   PaperRef{IPC: 0.65, KernelPct: 24, L1IMPKI: 30, ITLBWalksPKI: 0.20, L2MPKI: 12, L3HitPct: 85, DTLBWalksPKI: 0.5, BranchMispPct: 3.0},
		},
		{
			Name: "Hive-bench", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(109),
			Gen:     traceHiveBench,
			Paper:   PaperRef{IPC: 0.80, KernelPct: 6, L1IMPKI: 30, ITLBWalksPKI: 0.20, L2MPKI: 14, L3HitPct: 85, DTLBWalksPKI: 0.5, BranchMispPct: 2.5},
		},
		{
			Name: "IBCF", Suite: "DCBench", Class: DataAnalysis,
			Profile: daProfile(110),
			Gen:     traceIBCF,
			Paper:   PaperRef{IPC: 0.75, KernelPct: 3, L1IMPKI: 25, ITLBWalksPKI: 0.15, L2MPKI: 16, L3HitPct: 83, DTLBWalksPKI: 0.8, BranchMispPct: 2.0},
		},
		{
			Name: "HMM", Suite: "DCBench", Class: DataAnalysis,
			Profile: func() memtrace.Profile {
				p := daProfile(111)
				p.FPUShare = 0.2
				return p
			}(),
			Gen:   traceHMM,
			Paper: PaperRef{IPC: 0.90, KernelPct: 3, L1IMPKI: 22, ITLBWalksPKI: 0.12, L2MPKI: 6, L3HitPct: 88, DTLBWalksPKI: 0.3, BranchMispPct: 1.5},
		},

		// --- CloudSuite (Section III-C.2) ---
		{
			Name: "Software Testing", Suite: "CloudSuite", Class: Service,
			Profile: func() memtrace.Profile {
				p := serviceProfile(201, 384)
				// Cloud9 is compute-bound user code, not a request server.
				p.NSrc3P = 0.15
				p.FrameworkEvery = 600
				return p
			}(),
			Gen:   service.TraceSoftwareTesting,
			Paper: PaperRef{IPC: 0.55, KernelPct: 5, L1IMPKI: 15, ITLBWalksPKI: 0.10, L2MPKI: 20, L3HitPct: 92, DTLBWalksPKI: 0.8, BranchMispPct: 4.0},
		},
		{
			Name: "Media Streaming", Suite: "CloudSuite", Class: Service,
			Profile: func() memtrace.Profile {
				p := serviceProfile(202, 4096)
				// The deepest stack of the suite: ~3x the analysis-class
				// instruction footprint pressure (Figure 7).
				p.FrameworkEvery = 120
				p.FrameworkInstrs = 220
				p.ColdJumpP = 0.30
				return p
			}(),
			Gen:   service.TraceMediaStreaming,
			Paper: PaperRef{IPC: 0.50, KernelPct: 45, L1IMPKI: 70, ITLBWalksPKI: 0.30, L2MPKI: 60, L3HitPct: 95, DTLBWalksPKI: 1.0, BranchMispPct: 4.0},
		},
		{
			Name: "Data Serving", Suite: "CloudSuite", Class: Service,
			Profile: serviceProfile(203, 1536),
			Gen:     service.TraceDataServing,
			Paper:   PaperRef{IPC: 0.45, KernelPct: 50, L1IMPKI: 40, ITLBWalksPKI: 0.30, L2MPKI: 90, L3HitPct: 95, DTLBWalksPKI: 1.5, BranchMispPct: 5.0},
		},
		{
			Name: "Web Search", Suite: "CloudSuite", Class: Service,
			Profile: serviceProfile(204, 768),
			Gen:     service.TraceWebSearch,
			Paper:   PaperRef{IPC: 0.55, KernelPct: 40, L1IMPKI: 25, ITLBWalksPKI: 0.15, L2MPKI: 30, L3HitPct: 94, DTLBWalksPKI: 0.8, BranchMispPct: 4.5},
		},
		{
			Name: "Web Serving", Suite: "CloudSuite", Class: Service,
			Profile: serviceProfile(205, 1792),
			Gen:     service.TraceWebServing,
			Paper:   PaperRef{IPC: 0.40, KernelPct: 55, L1IMPKI: 45, ITLBWalksPKI: 0.25, L2MPKI: 80, L3HitPct: 96, DTLBWalksPKI: 1.2, BranchMispPct: 6.0},
		},

		// --- SPEC (Section III-C.1) ---
		{
			Name: "SPECFP", Suite: "SPEC CPU2006", Class: Desktop,
			Profile: func() memtrace.Profile {
				p := nativeProfile(301, 24, 0.5)
				p.ChainProb = 0.25
				return p
			}(),
			Gen:   func(t *memtrace.Tracer) { speccpu.TraceSPECFP(t, 128) },
			Paper: PaperRef{IPC: 1.10, KernelPct: 1, L1IMPKI: 0.5, ITLBWalksPKI: 0.01, L2MPKI: 12, L3HitPct: 60, DTLBWalksPKI: 1.8, BranchMispPct: 2.0},
		},
		{
			Name: "SPECINT", Suite: "SPEC CPU2006", Class: Desktop,
			Profile: nativeProfile(302, 32, 0),
			Gen:     speccpu.TraceSPECINT,
			Paper:   PaperRef{IPC: 1.00, KernelPct: 1, L1IMPKI: 2, ITLBWalksPKI: 0.02, L2MPKI: 10, L3HitPct: 70, DTLBWalksPKI: 1.5, BranchMispPct: 5.5},
		},
		{
			Name: "SPECWeb", Suite: "SPECweb2005", Class: Service,
			Profile: serviceProfile(303, 1536),
			Gen:     service.TraceSPECWeb,
			Paper:   PaperRef{IPC: 0.45, KernelPct: 50, L1IMPKI: 40, ITLBWalksPKI: 0.25, L2MPKI: 70, L3HitPct: 95, DTLBWalksPKI: 1.2, BranchMispPct: 5.5},
		},

		// --- HPCC (Section III-C.1) ---
		{
			Name: "HPCC-COMM", Suite: "HPCC", Class: HPC,
			Profile: func() memtrace.Profile {
				p := nativeProfile(401, 16, 0.2)
				p.ChainProb = 0.65 // serialised message packing
				return p
			}(),
			Gen:   hpcc.TraceCOMM,
			Paper: PaperRef{IPC: 0.80, KernelPct: 25, L1IMPKI: 1, ITLBWalksPKI: 0.01, L2MPKI: 5, L3HitPct: 60, DTLBWalksPKI: 0.3, BranchMispPct: 1.0},
		},
		{
			Name: "HPCC-DGEMM", Suite: "HPCC", Class: HPC,
			Profile: nativeProfile(402, 8, 0.7),
			Gen:     func(t *memtrace.Tracer) { hpcc.TraceDGEMM(t, 96) },
			Paper:   PaperRef{IPC: 1.20, KernelPct: 1, L1IMPKI: 0.1, ITLBWalksPKI: 0.005, L2MPKI: 2, L3HitPct: 85, DTLBWalksPKI: 0.1, BranchMispPct: 0.5},
		},
		{
			Name: "HPCC-FFT", Suite: "HPCC", Class: HPC,
			Profile: nativeProfile(403, 12, 0.6),
			Gen:     func(t *memtrace.Tracer) { hpcc.TraceFFT(t, 1<<16) },
			Paper:   PaperRef{IPC: 0.90, KernelPct: 1, L1IMPKI: 0.2, ITLBWalksPKI: 0.005, L2MPKI: 8, L3HitPct: 50, DTLBWalksPKI: 0.4, BranchMispPct: 0.8},
		},
		{
			Name: "HPCC-HPL", Suite: "HPCC", Class: HPC,
			Profile: nativeProfile(404, 8, 0.7),
			Gen:     func(t *memtrace.Tracer) { hpcc.TraceHPL(t, 144) },
			Paper:   PaperRef{IPC: 1.20, KernelPct: 1, L1IMPKI: 0.1, ITLBWalksPKI: 0.005, L2MPKI: 2, L3HitPct: 80, DTLBWalksPKI: 0.1, BranchMispPct: 0.5},
		},
		{
			Name: "HPCC-PTRANS", Suite: "HPCC", Class: HPC,
			Profile: nativeProfile(405, 8, 0.3),
			Gen:     func(t *memtrace.Tracer) { hpcc.TracePTRANS(t, 1024) },
			Paper:   PaperRef{IPC: 0.55, KernelPct: 2, L1IMPKI: 0.1, ITLBWalksPKI: 0.005, L2MPKI: 25, L3HitPct: 20, DTLBWalksPKI: 1.5, BranchMispPct: 0.5},
		},
		{
			Name: "HPCC-RandomAccess", Suite: "HPCC", Class: HPC,
			Profile: func() memtrace.Profile {
				p := nativeProfile(406, 8, 0)
				p.ChainProb = 0.7 // the update chain is serial
				return p
			}(),
			Gen:   func(t *memtrace.Tracer) { hpcc.TraceGUPS(t, 192<<20) },
			Paper: PaperRef{IPC: 0.30, KernelPct: 31, L1IMPKI: 0.5, ITLBWalksPKI: 0.01, L2MPKI: 35, L3HitPct: 5, DTLBWalksPKI: 2.5, BranchMispPct: 1.0},
		},
		{
			Name: "HPCC-STREAM", Suite: "HPCC", Class: HPC,
			Profile: nativeProfile(407, 8, 0.4),
			Gen:     func(t *memtrace.Tracer) { hpcc.TraceStream(t, 1<<24) },
			Paper:   PaperRef{IPC: 0.45, KernelPct: 1, L1IMPKI: 0.1, ITLBWalksPKI: 0.005, L2MPKI: 30, L3HitPct: 5, DTLBWalksPKI: 0.5, BranchMispPct: 0.3},
		},
	}
}
