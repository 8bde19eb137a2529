// Package dcbench's benchmark harness regenerates every table and figure of
// "Characterizing Data Analysis Workloads in Data Centers" (IISWC 2013).
// Each benchmark reruns the corresponding experiment and reports its
// headline metrics via testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. The ablation benchmarks at the bottom
// exercise the design recommendations the paper draws (branch predictor
// complexity, LLC sizing, the framework-overhead front-end story, and
// memory-level parallelism).
package dcbench

import (
	"context"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/uarch/bpred"
	"dcbench/internal/workloads"
)

// benchEngine and benchCluster are the harness's memo tables: every
// benchmark takes them through benchOptions, so a run simulates each sweep
// and cluster cell once.
var (
	benchEngine  = sweep.NewEngine()
	benchCluster = workloads.NewStatsCache(nil)
)

// benchOptions keeps the per-iteration cost of the counter benches modest.
func benchOptions() report.Options {
	o := report.DefaultOptions()
	o.Scale = 0.01
	o.Instrs = 250_000
	o.Warmup = 120_000
	o.Engine, o.Cluster = benchEngine, benchCluster
	return o
}

// characterized returns the shared characterization sweep: benchEngine's
// memo table caches it across benchmarks of one run, so only the first
// caller pays for simulation.
func characterized(b *testing.B) []*core.Result {
	b.Helper()
	rs, err := report.Characterized(context.Background(), benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

func daAvg(rs []*core.Result, f func(*uarch.Counters) float64) float64 {
	return core.ClassAverage(rs, core.DataAnalysis, f)
}

func svcAvg(rs []*core.Result, f func(*uarch.Counters) float64) float64 {
	return core.ClassAverage(rs, core.Service, f)
}

// --- Figure 1 / Tables ---

func BenchmarkFigure1DomainShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if report.Figure1() == nil {
			b.Fatal("no figure")
		}
	}
}

func BenchmarkTable1RetiredInstructions(b *testing.B) {
	o := benchOptions()
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		t, err := report.Table1(context.Background(), o, rs)
		if err != nil {
			b.Fatal(err)
		}
		// Report the Naive Bayes estimate (the paper's largest, 68131e9).
		for _, row := range t.Rows {
			if row.Label == "Naive Bayes" {
				b.ReportMetric(row.Values[1], "bayes-instr-1e9")
			}
		}
	}
}

func BenchmarkTable3Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if report.Table3() == "" {
			b.Fatal("empty config")
		}
	}
}

// --- Figure 2: speedup ---

func BenchmarkFigure2Speedup(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.Figure2(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		var min, max float64 = 99, 0
		var bayes float64
		for _, r := range t.Rows {
			s8 := r.Values[2]
			if s8 < min {
				min = s8
			}
			if s8 > max {
				max = s8
			}
			if r.Label == "Naive Bayes" {
				bayes = s8
			}
		}
		b.ReportMetric(min, "speedup8-min")
		b.ReportMetric(max, "speedup8-max")
		b.ReportMetric(bayes, "speedup8-bayes")
	}
}

// --- Figure 5: disk writes ---

func BenchmarkFigure5DiskWrites(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := report.Figure5(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t.Rows {
			if r.Label == "Sort" {
				b.ReportMetric(r.Values[0], "sort-writes/s")
			}
		}
	}
}

// --- Figures 3-12: counter metrics over the 26-workload sweep ---

func BenchmarkFigure3IPC(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure3(rs)
	}
	ipc := func(c *uarch.Counters) float64 { return c.IPC() }
	b.ReportMetric(daAvg(rs, ipc), "ipc-da-avg")
	b.ReportMetric(svcAvg(rs, ipc), "ipc-svc-avg")
}

func BenchmarkFigure4KernelShare(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure4(rs)
	}
	ks := func(c *uarch.Counters) float64 { return 100 * c.KernelShare() }
	b.ReportMetric(daAvg(rs, ks), "kernel%-da-avg")
	b.ReportMetric(svcAvg(rs, ks), "kernel%-svc-avg")
}

func BenchmarkFigure6Stalls(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure6(rs)
	}
	backend := func(c *uarch.Counters) float64 {
		s := c.StallBreakdown()
		return 100 * (s[2] + s[3] + s[4] + s[5])
	}
	b.ReportMetric(daAvg(rs, backend), "backend-stall%-da")
	b.ReportMetric(svcAvg(rs, backend), "backend-stall%-svc")
}

func BenchmarkFigure7L1IMPKI(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure7(rs)
	}
	b.ReportMetric(daAvg(rs, func(c *uarch.Counters) float64 { return c.L1IMPKI() }), "l1i-mpki-da-avg")
}

func BenchmarkFigure8ITLBWalks(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure8(rs)
	}
	b.ReportMetric(daAvg(rs, func(c *uarch.Counters) float64 { return c.ITLBWalksPKI() }), "itlb-walks-pki-da")
}

func BenchmarkFigure9L2MPKI(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure9(rs)
	}
	mpki := func(c *uarch.Counters) float64 { return c.L2MPKI() }
	b.ReportMetric(daAvg(rs, mpki), "l2-mpki-da-avg")
	b.ReportMetric(svcAvg(rs, mpki), "l2-mpki-svc-avg")
}

func BenchmarkFigure10L3HitRatio(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure10(rs)
	}
	b.ReportMetric(100*daAvg(rs, func(c *uarch.Counters) float64 { return c.L3HitRatio() }), "l3-hit%-da-avg")
}

func BenchmarkFigure11DTLBWalks(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure11(rs)
	}
	b.ReportMetric(daAvg(rs, func(c *uarch.Counters) float64 { return c.DTLBWalksPKI() }), "dtlb-walks-pki-da")
}

func BenchmarkFigure12BranchMisprediction(b *testing.B) {
	rs := characterized(b)
	for i := 0; i < b.N; i++ {
		report.Figure12(rs)
	}
	br := func(c *uarch.Counters) float64 { return 100 * c.BranchMispredictRatio() }
	b.ReportMetric(daAvg(rs, br), "mispredict%-da-avg")
	b.ReportMetric(svcAvg(rs, br), "mispredict%-svc-avg")
}

// --- Ablations ---

// characterizeWith runs one workload under a modified core config.
func characterizeWith(b *testing.B, name string, mutate func(*uarch.Config)) *uarch.Counters {
	b.Helper()
	w, err := core.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 120_000
	mutate(&cfg)
	return core.Characterize(w, cfg, 370_000).Counters
}

// BenchmarkAblationBranchPredictor supports the paper's Section IV-E
// recommendation: a simpler predictor loses little on data analysis
// workloads. Each run sets the predictor kind in the config: the full
// tournament, its bimodal table alone, or no training (static not-taken).
func BenchmarkAblationBranchPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tour := characterizeWith(b, "K-means", func(c *uarch.Config) {})
		bim := characterizeWith(b, "K-means", func(c *uarch.Config) { c.Predictor = bpred.KindBimodal })
		stat := characterizeWith(b, "K-means", func(c *uarch.Config) { c.Predictor = bpred.KindStatic })
		b.ReportMetric(100*tour.BranchMispredictRatio(), "mispredict%-tournament")
		b.ReportMetric(100*bim.BranchMispredictRatio(), "mispredict%-bimodal")
		b.ReportMetric(100*stat.BranchMispredictRatio(), "mispredict%-static")
		b.ReportMetric(tour.IPC()/bim.IPC(), "ipc-ratio-tournament-vs-bimodal")
	}
}

// BenchmarkAblationLLCSize supports the LLC-sizing recommendation
// (Section IV-D): sweep the L3 from 3 MB to 24 MB on the workload with the
// largest LLC-resident footprint (Data Serving) and report the hit ratio
// at each point — the knee locates the capacity the class actually needs.
func BenchmarkAblationLLCSize(b *testing.B) {
	w, err := core.ByName("Data Serving")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, mb := range []int{3, 6, 12, 24} {
			cfg := uarch.DefaultConfig()
			// Long window: reuse distances must exceed the smaller L3s
			// for capacity to matter at all.
			cfg.Warmup = 1_000_000
			cfg.L3Size = mb << 20
			c := core.Characterize(w, cfg, 4_000_000).Counters
			b.ReportMetric(100*c.L3HitRatio(), "l3-hit%-"+itoa(mb)+"MB")
		}
	}
}

// BenchmarkAblationFrameworkOverhead isolates the big-binary front-end
// story (Section IV-C): the same WordCount kernel with and without the
// JVM/Hadoop framework model.
func BenchmarkAblationFrameworkOverhead(b *testing.B) {
	w, err := core.ByName("WordCount")
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 120_000
	for i := 0; i < b.N; i++ {
		with := core.Characterize(w, cfg, 370_000).Counters
		lean := *w
		p := w.Profile
		p.FrameworkEvery = 0
		p.GCEvery = 0
		p.CodeKB = 64
		p.HotCodeKB = 32
		lean.Profile = p
		without := core.Characterize(&lean, cfg, 370_000).Counters
		b.ReportMetric(with.L1IMPKI(), "l1i-mpki-framework")
		b.ReportMetric(without.L1IMPKI(), "l1i-mpki-lean")
		b.ReportMetric(without.IPC()/with.IPC(), "ipc-gain-lean")
	}
}

// BenchmarkAblationMSHR sweeps memory-level parallelism on STREAM,
// the sensitivity that separates bandwidth kernels from latency kernels.
func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{1, 4, 10, 32} {
			m := m
			c := characterizeWith(b, "HPCC-STREAM", func(c *uarch.Config) { c.MSHRs = m })
			b.ReportMetric(c.IPC(), "stream-ipc-mshr"+itoa(m))
		}
	}
}

// --- Sweep engine: serial vs parallel ---

// benchSweep runs the full 26-workload characterization sweep at the given
// parallelism with memoization off, so every iteration pays the whole
// simulation cost — the serial/parallel pair quantifies the engine's
// speedup (and its counters are bit-identical either way).
func benchSweep(b *testing.B, workers int) {
	o := benchOptions()
	jobs := core.RegistryJobs()
	cfg := uarch.DefaultConfig()
	cfg.Warmup = o.Warmup
	eng := sweep.NewEngine()
	instrs := o.Warmup + o.Instrs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters, err := eng.Run(context.Background(), jobs, cfg, instrs,
			sweep.RunOptions{Workers: workers, NoMemo: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(counters) != len(jobs) {
			b.Fatalf("got %d results, want %d", len(counters), len(jobs))
		}
	}
	b.ReportMetric(float64(len(jobs)*int(instrs)*b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkSweepSerial(b *testing.B)    { benchSweep(b, 1) }
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkClusterWordCount measures the end-to-end simulated MapReduce
// stack itself (engine throughput, not workload metrics).
func BenchmarkClusterWordCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := workloads.NewEnv(4, 0.005, 7)
		if _, err := workloads.ByName("WordCount").Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterCell runs one cell of the Figure 2 matrix — a workload on
// 8 slaves at the shipped scale and seed — per iteration: the unit the
// cold figure path fans out, with its allocation volume beside its time.
func BenchmarkClusterCell(b *testing.B) {
	o := report.DefaultOptions()
	for _, c := range [][2]string{{"SVM", "SVM"}, {"FuzzyKMeans", "Fuzzy K-means"}, {"KMeans", "K-means"},
		{"NaiveBayes", "Naive Bayes"}, {"IBCF", "IBCF"}} {
		w := workloads.ByName(c[1])
		b.Run(c[0]+"-8slaves", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.NewEnv(8, o.Scale, o.Seed)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreSimulator measures raw core-model throughput in
// instructions per second.
func BenchmarkCoreSimulator(b *testing.B) {
	w, err := core.ByName("K-means")
	if err != nil {
		b.Fatal(err)
	}
	const instrs = 500_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Characterize(w, uarch.DefaultConfig(), instrs)
	}
	b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds(), "instrs/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
