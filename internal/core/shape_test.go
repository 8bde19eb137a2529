package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// characterized runs the full registry once per test binary — the shape
// tests all read from the same characterization sweep.
var (
	resultsOnce sync.Once
	results     []*Result
	resultsErr  error
)

func characterized(t *testing.T) []*Result {
	t.Helper()
	resultsOnce.Do(func() {
		cfg := uarch.DefaultConfig()
		cfg.Warmup = 250_000
		results, resultsErr = CharacterizeSweep(context.Background(), sweep.NewEngine(), cfg, 650_000, sweep.RunOptions{})
	})
	if resultsErr != nil {
		t.Fatal(resultsErr)
	}
	return results
}

func metric(t *testing.T, rs []*Result, name string, f func(*uarch.Counters) float64) float64 {
	t.Helper()
	for _, r := range rs {
		if r.Workload.Name == name {
			return f(r.Counters)
		}
	}
	t.Fatalf("workload %q not in registry", name)
	return 0
}

func classAvg(rs []*Result, class Class, f func(*uarch.Counters) float64) float64 {
	return ClassAverage(rs, class, f)
}

func TestRegistryComplete(t *testing.T) {
	rs := Registry()
	if len(rs) != 26 {
		// 11 data analysis + 5 CloudSuite + SPECFP/SPECINT/SPECweb +
		// 7 HPCC: the 26 workloads of Figures 3-12.
		t.Fatalf("registry = %d workloads, want 26", len(rs))
	}
	counts := map[Class]int{}
	seen := map[string]bool{}
	for _, w := range rs {
		if seen[w.Name] {
			t.Fatalf("duplicate %s", w.Name)
		}
		seen[w.Name] = true
		counts[w.Class]++
		if w.Gen == nil {
			t.Fatalf("%s has no generator", w.Name)
		}
	}
	if counts[DataAnalysis] != 11 {
		t.Fatalf("data analysis workloads = %d, want 11", counts[DataAnalysis])
	}
	if counts[Service] != 6 { // 5 CloudSuite + SPECweb
		t.Fatalf("service-class workloads = %d, want 6", counts[Service])
	}
	if counts[HPC] != 7 {
		t.Fatalf("HPCC workloads = %d, want 7", counts[HPC])
	}
	if counts[Desktop] != 2 {
		t.Fatalf("SPEC CPU workloads = %d, want 2", counts[Desktop])
	}
	if _, err := ByName("Sort"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should fail for unknown workloads")
	}
}

// TestFigure3IPCShape asserts the paper's headline IPC ordering: services
// below the data analysis class, which sits below the compute-bound HPCC
// kernels; STREAM-like memory-bound kernels at the bottom of HPCC.
func TestFigure3IPCShape(t *testing.T) {
	rs := characterized(t)
	ipc := func(c *uarch.Counters) float64 { return c.IPC() }
	daAvg := classAvg(rs, DataAnalysis, ipc)
	svcAvg := classAvg(rs, Service, ipc)
	if svcAvg >= daAvg {
		t.Fatalf("service IPC %v >= data analysis IPC %v", svcAvg, daAvg)
	}
	hpl := metric(t, rs, "HPCC-HPL", ipc)
	dgemm := metric(t, rs, "HPCC-DGEMM", ipc)
	if hpl <= daAvg || dgemm <= daAvg {
		t.Fatalf("compute-bound HPCC (%v, %v) should beat data analysis (%v)", hpl, dgemm, daAvg)
	}
	if stream := metric(t, rs, "HPCC-STREAM", ipc); stream >= daAvg {
		t.Fatalf("STREAM IPC %v should be below data analysis %v", stream, daAvg)
	}
	if ra := metric(t, rs, "HPCC-RandomAccess", ipc); ra >= 0.5 {
		t.Fatalf("RandomAccess IPC %v should be very low", ra)
	}
}

// TestFigure4KernelShape asserts Figure 4: services run >30% kernel
// instructions, data analysis ~4% with Sort the outlier near 24%, and
// RandomAccess the HPCC outlier.
func TestFigure4KernelShape(t *testing.T) {
	rs := characterized(t)
	ks := func(c *uarch.Counters) float64 { return c.KernelShare() }
	for _, name := range []string{"Media Streaming", "Data Serving", "Web Serving", "SPECWeb"} {
		if v := metric(t, rs, name, ks); v < 0.30 {
			t.Fatalf("%s kernel share %v, want >= 0.30", name, v)
		}
	}
	sort := metric(t, rs, "Sort", ks)
	if sort < 0.15 || sort > 0.35 {
		t.Fatalf("Sort kernel share %v, want ~0.24", sort)
	}
	for _, name := range []string{"K-means", "Naive Bayes", "IBCF", "HMM"} {
		if v := metric(t, rs, name, ks); v > 0.10 {
			t.Fatalf("%s kernel share %v, want <= 0.10", name, v)
		}
	}
	if ra := metric(t, rs, "HPCC-RandomAccess", ks); ra < 0.2 {
		t.Fatalf("RandomAccess kernel share %v, want ~0.31", ra)
	}
	if d := metric(t, rs, "HPCC-DGEMM", ks); d > 0.02 {
		t.Fatalf("DGEMM kernel share %v, want ~0", d)
	}
}

// TestFigure6StallShape asserts the paper's key pipeline finding: data
// analysis workloads stall mostly in the out-of-order part (RS+ROB), while
// service workloads stall mostly before it (fetch+RAT).
func TestFigure6StallShape(t *testing.T) {
	rs := characterized(t)
	frontEnd := func(c *uarch.Counters) float64 {
		b := c.StallBreakdown()
		return b[0] + b[1] // fetch + RAT
	}
	backEnd := func(c *uarch.Counters) float64 {
		b := c.StallBreakdown()
		return b[2] + b[3] + b[4] + b[5] // LB + RS + SB + ROB
	}
	daBack := classAvg(rs, DataAnalysis, backEnd)
	svcFront := classAvg(rs, Service, frontEnd)
	svcBack := classAvg(rs, Service, backEnd)
	if svcFront <= svcBack {
		t.Fatalf("services should be front-end bound: front %v vs back %v", svcFront, svcBack)
	}
	if daBack < 0.35 {
		t.Fatalf("data analysis back-end stall share %v, want >= 0.35", daBack)
	}
	// RAT pressure must be clearly higher for services than data analysis.
	rat := func(c *uarch.Counters) float64 { return c.StallBreakdown()[1] }
	if svcRAT, daRAT := classAvg(rs, Service, rat), classAvg(rs, DataAnalysis, rat); svcRAT <= daRAT {
		t.Fatalf("service RAT share %v <= data analysis %v", svcRAT, daRAT)
	}
}

// TestFigure7L1IShape asserts Figure 7: data analysis instruction-miss
// rates far above SPEC/HPCC, below the worst services; Media Streaming the
// maximum; Naive Bayes the data analysis minimum.
func TestFigure7L1IShape(t *testing.T) {
	rs := characterized(t)
	mpki := func(c *uarch.Counters) float64 { return c.L1IMPKI() }
	daAvg := classAvg(rs, DataAnalysis, mpki)
	if daAvg < 8 || daAvg > 40 {
		t.Fatalf("data analysis L1I MPKI %v, want ~23", daAvg)
	}
	for _, name := range []string{"SPECFP", "SPECINT", "HPCC-DGEMM", "HPCC-HPL", "HPCC-STREAM"} {
		if v := metric(t, rs, name, mpki); v > 3 {
			t.Fatalf("%s L1I MPKI %v, want ~0", name, v)
		}
	}
	ms := metric(t, rs, "Media Streaming", mpki)
	if ms < 1.3*daAvg {
		t.Fatalf("Media Streaming L1I MPKI %v should far exceed DA average %v", ms, daAvg)
	}
	// Naive Bayes is the paper's noted outlier... its footprint is the
	// largest hot share of the class, so it must not be the class maximum.
	nb := metric(t, rs, "Naive Bayes", mpki)
	max := 0.0
	for _, r := range rs {
		if r.Workload.Class == DataAnalysis {
			if v := mpki(r.Counters); v > max {
				max = v
			}
		}
	}
	if nb >= max {
		t.Fatalf("Naive Bayes L1I MPKI %v should not be the class maximum %v", nb, max)
	}
}

// TestFigure9L2Shape asserts Figure 9: services miss L2 far more than data
// analysis, which misses more than the dense HPCC kernels.
func TestFigure9L2Shape(t *testing.T) {
	rs := characterized(t)
	mpki := func(c *uarch.Counters) float64 { return c.L2MPKI() }
	daAvg := classAvg(rs, DataAnalysis, mpki)
	svcAvg := classAvg(rs, Service, mpki)
	if svcAvg <= 1.5*daAvg {
		t.Fatalf("service L2 MPKI %v should far exceed data analysis %v", svcAvg, daAvg)
	}
	for _, name := range []string{"HPCC-DGEMM", "HPCC-HPL"} {
		if v := metric(t, rs, name, mpki); v >= daAvg {
			t.Fatalf("%s L2 MPKI %v should be below data analysis %v", name, v, daAvg)
		}
	}
	// The memory-stressing HPCC kernels are the suite's exceptions.
	if v := metric(t, rs, "HPCC-STREAM", mpki); v < daAvg {
		t.Fatalf("STREAM L2 MPKI %v should exceed data analysis %v", v, daAvg)
	}
}

// TestFigure10L3Shape asserts Figure 10's contrast: for the cache-friendly
// classes most L2 misses are served by L3, while the bandwidth kernels
// (STREAM, RandomAccess, PTRANS) mostly miss it.
func TestFigure10L3Shape(t *testing.T) {
	rs := characterized(t)
	hit := func(c *uarch.Counters) float64 { return c.L3HitRatio() }
	daAvg := classAvg(rs, DataAnalysis, hit)
	if daAvg < 0.5 {
		t.Fatalf("data analysis L3 hit ratio %v, want majority", daAvg)
	}
	for _, name := range []string{"HPCC-STREAM", "HPCC-RandomAccess", "HPCC-PTRANS"} {
		if v := metric(t, rs, name, hit); v >= daAvg {
			t.Fatalf("%s L3 hit %v should be below data analysis %v", name, v, daAvg)
		}
	}
}

// TestFigure8And11TLBShape asserts the TLB claims: near-zero walks for
// SPEC/HPCC code (Fig. 8), data analysis below services, RandomAccess the
// HPCC data-walk outlier (Fig. 11), Naive Bayes the data analysis outlier.
func TestFigure8And11TLBShape(t *testing.T) {
	rs := characterized(t)
	iw := func(c *uarch.Counters) float64 { return c.ITLBWalksPKI() }
	dw := func(c *uarch.Counters) float64 { return c.DTLBWalksPKI() }
	if daI, svcI := classAvg(rs, DataAnalysis, iw), classAvg(rs, Service, iw); daI >= svcI {
		t.Fatalf("DA ITLB walks %v >= services %v", daI, svcI)
	}
	for _, name := range []string{"HPCC-DGEMM", "HPCC-HPL", "HPCC-STREAM", "SPECFP", "SPECINT"} {
		if v := metric(t, rs, name, iw); v > 0.05 {
			t.Fatalf("%s ITLB walks %v, want ~0", name, v)
		}
	}
	ra := metric(t, rs, "HPCC-RandomAccess", dw)
	for _, name := range []string{"HPCC-DGEMM", "HPCC-HPL", "HPCC-STREAM", "HPCC-FFT", "HPCC-COMM"} {
		if v := metric(t, rs, name, dw); v >= ra {
			t.Fatalf("%s DTLB walks %v >= RandomAccess %v", name, v, ra)
		}
	}
	// Naive Bayes leads the data analysis class in data page walks.
	nb := metric(t, rs, "Naive Bayes", dw)
	for _, name := range []string{"K-means", "Fuzzy K-means", "HMM", "SVM", "Grep", "WordCount"} {
		if v := metric(t, rs, name, dw); v >= nb {
			t.Fatalf("%s DTLB walks %v >= Naive Bayes %v", name, v, nb)
		}
	}
}

// TestFigure12BranchShape asserts Figure 12: data analysis mispredicts
// below the services, HPCC essentially perfectly predicted, SPECINT the
// worst of the native suites.
func TestFigure12BranchShape(t *testing.T) {
	rs := characterized(t)
	br := func(c *uarch.Counters) float64 { return c.BranchMispredictRatio() }
	daAvg := classAvg(rs, DataAnalysis, br)
	svcAvg := classAvg(rs, Service, br)
	if daAvg >= svcAvg {
		t.Fatalf("DA mispredicts %v >= services %v", daAvg, svcAvg)
	}
	if daAvg > 0.10 {
		t.Fatalf("DA mispredict ratio %v, want low (paper: 1-3%%)", daAvg)
	}
	for _, name := range []string{"HPCC-DGEMM", "HPCC-HPL", "HPCC-STREAM", "HPCC-PTRANS"} {
		if v := metric(t, rs, name, br); v > 0.02 {
			t.Fatalf("%s mispredicts %v, want ~0", name, v)
		}
	}
	if si, sf := metric(t, rs, "SPECINT", br), metric(t, rs, "SPECFP", br); si <= sf {
		t.Fatalf("SPECINT mispredicts %v <= SPECFP %v", si, sf)
	}
}

// TestCharacterizeDeterministic: identical configs give identical counters.
func TestCharacterizeDeterministic(t *testing.T) {
	w, err := ByName("Grep")
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	a := Characterize(w, cfg, 100_000)
	b := Characterize(w, cfg, 100_000)
	if *a.Counters != *b.Counters {
		t.Fatal("characterization not deterministic")
	}
}

// TestClassAverages sanity-checks the helper used by the figure harness.
func TestClassAverages(t *testing.T) {
	rs := characterized(t)
	if v := ClassAverage(rs, DataAnalysis, func(c *uarch.Counters) float64 { return c.IPC() }); v <= 0 {
		t.Fatalf("DA average IPC %v", v)
	}
	if v := ClassAverage(rs, HPC, func(c *uarch.Counters) float64 { return c.IPC() }); v <= 0 {
		t.Fatalf("HPC average IPC %v", v)
	}
	if v := ClassAverage(nil, HPC, func(c *uarch.Counters) float64 { return c.IPC() }); v != 0 {
		t.Fatalf("empty average = %v, want 0", v)
	}
}

// TestRegistryIsShared pins Registry's contract: it allocates nothing, and
// no caller writes through the shared entries — after a full
// characterization sweep every entry still equals a fresh build.
func TestRegistryIsShared(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { _ = Registry() }); n != 0 {
		t.Fatalf("Registry allocates %v times per call, want 0", n)
	}
	characterized(t)
	fresh := buildRegistry()
	for i, w := range Registry() {
		got, want := *w, *fresh[i]
		if reflect.ValueOf(got.Gen).Pointer() != reflect.ValueOf(want.Gen).Pointer() {
			t.Errorf("%s: generator replaced", w.Name)
		}
		got.Gen, want.Gen = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("entry %d changed:\n got  %+v\n want %+v", i, got, want)
		}
	}
}
