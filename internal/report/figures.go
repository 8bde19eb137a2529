package report

import (
	"context"
	"flag"
	"fmt"

	"dcbench/internal/core"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// Options parameterises a figure regeneration run.
type Options struct {
	// Scale multiplies the paper's input sizes for the cluster-level
	// experiments (Figures 2 and 5, Table I).
	Scale float64
	// Seed drives all generators.
	Seed uint64
	// Instrs is the measured trace length per workload for the
	// counter-level experiments (Figures 3-12); Warmup precedes it.
	Instrs int64
	Warmup int64
	// Engine runs the characterization sweeps (Figures 3-12, Table I) and
	// memoizes them across calls that share it; nil gives each call a
	// fresh engine. The caller owns it: dcserved and dcbench build one per
	// process and attach the store's memo backend to it.
	Engine *sweep.Engine
	// Cluster memoizes the cluster-level experiments (Figures 2 and 5,
	// Table I) across calls that share it; nil runs every call's cells
	// un-memoized. The caller owns it, as it owns Engine.
	Cluster *workloads.StatsCache
}

// DefaultOptions balances fidelity against runtime (a full `dcbench all`
// takes tens of seconds serially; the parallel sweep divides that by the
// host core count).
func DefaultOptions() Options {
	return Options{Scale: 0.05, Seed: 42, Instrs: 650_000, Warmup: 250_000}
}

// RegisterFlags declares the run-parameter flags on fs, defaulted from *o
// and written back on Parse. It is the single definition of these flags
// for every binary (dcbench, dcserved), so their names, help text and
// defaults cannot drift apart — the usage-pinning tests in cmd/dcbench
// guard the defaults once, for all users.
func RegisterFlags(fs *flag.FlagSet, o *Options) {
	fs.Float64Var(&o.Scale, "scale", o.Scale, "fraction of the paper's input sizes")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "generator seed")
	fs.Int64Var(&o.Instrs, "instrs", o.Instrs, "measured instructions per trace")
	fs.Int64Var(&o.Warmup, "warmup", o.Warmup, "ramp-up instructions excluded from counters")
}

// CoreConfig is the simulated machine for this run: the paper's Table III
// box with the run's warmup applied. The service derives sweep keys and
// cache validators from its fingerprint.
func (o Options) CoreConfig() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.Warmup = o.Warmup
	return cfg
}

// Characterized runs the full 26-workload registry once through o.Engine
// (Figures 3-12 all read from the same sweep), cancellable between
// workloads. Repeated calls on one engine reuse its memoized counters
// instead of re-simulating. The sweep fans out over every host core; the
// process runs at most one simulation per core (sweep.Acquire), so
// GOMAXPROCS=1 gives a serial run with identical results.
func Characterized(ctx context.Context, o Options) ([]*core.Result, error) {
	e := o.Engine
	if e == nil {
		e = sweep.NewEngine()
	}
	return core.CharacterizeSweep(ctx, e, o.CoreConfig(), o.Warmup+o.Instrs, sweep.RunOptions{})
}

// FigureByNumber renders figure n (1..12) — the dispatch shared by the CLI
// and the dcserved service. Figures 3-12 run (or reuse) the
// characterization sweep; 2 and 5 run the cluster experiments.
func FigureByNumber(ctx context.Context, o Options, n int) (*Table, error) {
	switch n {
	case 1:
		return Figure1(), nil
	case 2:
		return Figure2(ctx, o)
	case 5:
		return Figure5(ctx, o)
	case 3, 4, 6, 7, 8, 9, 10, 11, 12:
		results, err := Characterized(ctx, o)
		if err != nil {
			return nil, err
		}
		builders := map[int]func([]*core.Result) *Table{
			3: Figure3, 4: Figure4, 6: Figure6, 7: Figure7, 8: Figure8,
			9: Figure9, 10: Figure10, 11: Figure11, 12: Figure12,
		}
		return builders[n](results), nil
	default:
		return nil, fmt.Errorf("figure number must be 1..12, got %d", n)
	}
}

// TableByNumber renders table n (1..3). Table I comes back as a *Table;
// Tables II and III are prose, returned as text with a nil *Table.
func TableByNumber(ctx context.Context, o Options, n int) (*Table, string, error) {
	switch n {
	case 1:
		results, err := Characterized(ctx, o)
		if err != nil {
			return nil, "", err
		}
		t, err := Table1(ctx, o, results)
		return t, "", err
	case 2:
		return nil, Table2(), nil
	case 3:
		return nil, Table3(), nil
	default:
		return nil, "", fmt.Errorf("table number must be 1..3, got %d", n)
	}
}

// Figure1 reproduces the top-sites domain share survey (static data from
// the paper's Alexa snapshot, Figure 1).
func Figure1() *Table {
	return &Table{
		Title:     "Figure 1: top sites in the web by application domain (Alexa, Feb 2013)",
		Columns:   []string{"share_pct"},
		Precision: 1,
		Rows: []Row{
			{Label: "Search Engine", Values: []float64{40}},
			{Label: "Social Network", Values: []float64{25}},
			{Label: "Electronic Commerce", Values: []float64{15}},
			{Label: "Media Streaming", Values: []float64{5}},
			{Label: "Others", Values: []float64{15}},
		},
		Notes: []string{"survey data reproduced from the paper; motivates the three chosen domains"},
	}
}

// Figure2 reruns the speedup experiment: all eleven workloads on simulated
// clusters of 1, 4 and 8 slaves, normalised to the 1-slave makespan.
func Figure2(ctx context.Context, o Options) (*Table, error) {
	slaveCounts := []int{1, 4, 8}
	t := &Table{
		Title:     fmt.Sprintf("Figure 2: speedup vs slave count (scale=%.3f of paper input sizes)", o.Scale),
		Columns:   []string{"1 slave", "4 slaves", "8 slaves"},
		Precision: 2,
		Notes:     []string{"paper: 8-slave speedups range 3.3-8.2; Naive Bayes 6.6"},
	}
	all, err := workloads.SlaveSweepMemo(ctx, o.Cluster, workloads.All(), slaveCounts, o.Scale, o.Seed, 0)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	for i, w := range workloads.All() {
		row := Row{Label: w.Name}
		base := all[i][0].Makespan // slaveCounts[0] == 1 normalises the row
		for _, st := range all[i] {
			row.Values = append(row.Values, base/st.Makespan)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure5 reruns the disk-write-rate experiment on the 4-slave cluster.
func Figure5(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Title:     fmt.Sprintf("Figure 5: disk writes per second per slave (4 slaves, scale=%.3f)", o.Scale),
		Columns:   []string{"writes_per_sec"},
		Precision: 1,
		Notes:     []string{"paper: Sort has by far the highest write rate of the eleven"},
	}
	stats, err := clusterStats(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	for i, w := range workloads.All() {
		t.Rows = append(t.Rows, Row{Label: w.Name, Values: []float64{stats[i].DiskWritesPerSecond()}})
	}
	return t, nil
}

// clusterStats runs every cluster workload on its own 4-slave environment
// concurrently (one worker per host core), returning stats in
// workloads.All order — the shared experiment behind Figure 5 and Table I.
// With o.Cluster set, results are memoized per (workload, slaves, Scale,
// Seed) there (and in its persistent backend, when one is wired in) and
// shared with Figure 2's 4-slave column: treat them as read-only. A failed
// attempt (cancellation included) is not cached, so a later call retries.
func clusterStats(ctx context.Context, o Options) ([]*workloads.Stats, error) {
	all, err := workloads.SlaveSweepMemo(ctx, o.Cluster, workloads.All(), []int{4}, o.Scale, o.Seed, 0)
	if err != nil {
		return nil, err
	}
	stats := make([]*workloads.Stats, len(all))
	for i, row := range all {
		stats[i] = row[0]
	}
	return stats, nil
}

// Table1 reproduces Table I: input sizes and estimated retired
// instructions per workload, extrapolated from the simulated run's busy
// core-seconds at the paper's clock rate and the workload's simulated IPC.
func Table1(ctx context.Context, o Options, results []*core.Result) (*Table, error) {
	t := &Table{
		Title:     fmt.Sprintf("Table I: workloads, input sizes and estimated retired instructions (scale=%.3f run, extrapolated to scale 1)", o.Scale),
		Columns:   []string{"input_GB", "instr_1e9_est", "instr_1e9_paper"},
		Precision: 0,
	}
	paperInstr := map[string]float64{
		"Sort": 4578, "WordCount": 3533, "Grep": 1499, "Naive Bayes": 68131,
		"SVM": 2051, "K-means": 3227, "Fuzzy K-means": 15470, "IBCF": 32340,
		"HMM": 1841, "PageRank": 18470, "Hive-bench": 3659,
	}
	stats, err := clusterStats(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	for i, w := range workloads.All() {
		ipc := 0.78 // class average fallback
		for _, r := range results {
			if r.Workload.Name == w.Name {
				ipc = r.Counters.IPC()
			}
		}
		// busy core-seconds x 2.4 GHz x IPC, rescaled to the full input.
		est := stats[i].CoreSeconds / o.Scale * 2.4 * ipc
		t.Rows = append(t.Rows, Row{Label: w.Name,
			Values: []float64{w.InputGB, est, paperInstr[w.Name]}})
	}
	return t, nil
}

// Table2 reproduces Table II: application domains and scenarios.
func Table2() string {
	s := "Table II: scenarios of data analysis\n"
	for _, w := range workloads.All() {
		s += fmt.Sprintf("%-14s domains: %v\n%-14s scenarios: %v\n", w.Name, w.Domains, "", w.Scenarios)
	}
	return s
}

// Table3 dumps the simulated machine, the reproduction's Table III.
func Table3() string {
	c := uarch.DefaultConfig()
	return fmt.Sprintf(`Table III: simulated hardware configuration (Xeon E5645 class)
CPU model          4-wide out-of-order, %d-entry ROB, %d-entry RS
Load/store buffers %d / %d entries
L1 ICache          %d KB, %d-way, 64 B lines
L1 DCache          %d KB, %d-way, 64 B lines
L2 Cache           %d KB, %d-way, 64 B lines (private)
L3 Cache           %d MB, %d-way, 64 B lines (shared)
ITLB / DTLB        %d / %d entries, %d-way
L2 TLB             %d entries, %d-way; page walk %d cycles
Latencies          L1D %d, L2 %d, L3 %d, memory %d cycles
MSHRs / DRAM gap   %d / %d cycles
Branch predictor   14-bit tournament (bimodal + gshare), %d-entry BTB
`,
		c.ROB, c.RS, c.LQ, c.SQ,
		c.L1ISize>>10, c.L1IWays, c.L1DSize>>10, c.L1DWays,
		c.L2Size>>10, c.L2Ways, c.L3Size>>20, c.L3Ways,
		c.ITLBEntries, c.DTLBEntries, c.TLBWays,
		c.L2TLBEntries, c.TLBWays, c.WalkLat,
		c.L1DLat, c.L2Lat, c.L3Lat, c.MemLat,
		c.MSHRs, c.MemGap, 1<<c.BTBBits)
}

// metricFigure builds one of the counter figures (3, 4, 7, 8, 9, 10, 11,
// 12) over a characterization sweep, with the paper's approximate values
// alongside and the data-analysis class average appended as the paper's
// "avg" bar.
func metricFigure(results []*core.Result, title string, measured func(*uarch.Counters) float64, paper func(core.PaperRef) float64) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"measured", "paper_approx"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, Row{
			Label:  r.Workload.Name,
			Values: []float64{measured(r.Counters), paper(r.Workload.Paper)},
		})
		if r.Workload.Name == "HMM" { // end of the data analysis block
			t.Rows = append(t.Rows, Row{
				Label:  "avg (data analysis)",
				Values: []float64{core.ClassAverage(results, core.DataAnalysis, measured), 0},
			})
		}
	}
	return t
}

// Figure3 is IPC per workload.
func Figure3(results []*core.Result) *Table {
	return metricFigure(results, "Figure 3: instructions per cycle",
		func(c *uarch.Counters) float64 { return c.IPC() },
		func(p core.PaperRef) float64 { return p.IPC })
}

// Figure4 is the kernel-mode instruction share.
func Figure4(results []*core.Result) *Table {
	return metricFigure(results, "Figure 4: kernel instruction share (%)",
		func(c *uarch.Counters) float64 { return 100 * c.KernelShare() },
		func(p core.PaperRef) float64 { return p.KernelPct })
}

// Figure6 is the six-way pipeline stall breakdown.
func Figure6(results []*core.Result) *Table {
	t := &Table{
		Title:   "Figure 6: pipeline stall breakdown (shares of total stall cycles)",
		Columns: []string{"ifetch", "RAT", "load_buf", "RS", "store_buf", "ROB"},
		Notes: []string{
			"paper: data analysis stalls concentrate in the OoO part (RS ~37%, ROB ~20%);",
			"service workloads stall before it (RAT ~60%, ifetch ~13%)",
		},
	}
	for _, r := range results {
		b := r.Counters.StallBreakdown()
		t.Rows = append(t.Rows, Row{Label: r.Workload.Name, Values: b[:]})
	}
	return t
}

// Figure7 is L1I misses per kilo-instruction.
func Figure7(results []*core.Result) *Table {
	return metricFigure(results, "Figure 7: L1 instruction cache misses per k-instruction",
		func(c *uarch.Counters) float64 { return c.L1IMPKI() },
		func(p core.PaperRef) float64 { return p.L1IMPKI })
}

// Figure8 is ITLB-miss page walks per kilo-instruction.
func Figure8(results []*core.Result) *Table {
	return metricFigure(results, "Figure 8: ITLB-miss page walks per k-instruction",
		func(c *uarch.Counters) float64 { return c.ITLBWalksPKI() },
		func(p core.PaperRef) float64 { return p.ITLBWalksPKI })
}

// Figure9 is L2 misses per kilo-instruction.
func Figure9(results []*core.Result) *Table {
	return metricFigure(results, "Figure 9: L2 cache misses per k-instruction",
		func(c *uarch.Counters) float64 { return c.L2MPKI() },
		func(p core.PaperRef) float64 { return p.L2MPKI })
}

// Figure10 is the share of L2 misses satisfied by L3.
func Figure10(results []*core.Result) *Table {
	return metricFigure(results, "Figure 10: L3 hit ratio of L2 misses (%)",
		func(c *uarch.Counters) float64 { return 100 * c.L3HitRatio() },
		func(p core.PaperRef) float64 { return p.L3HitPct })
}

// Figure11 is DTLB-miss page walks per kilo-instruction.
func Figure11(results []*core.Result) *Table {
	return metricFigure(results, "Figure 11: DTLB-miss page walks per k-instruction",
		func(c *uarch.Counters) float64 { return c.DTLBWalksPKI() },
		func(p core.PaperRef) float64 { return p.DTLBWalksPKI })
}

// Figure12 is the branch misprediction ratio.
func Figure12(results []*core.Result) *Table {
	return metricFigure(results, "Figure 12: branch misprediction ratio (%)",
		func(c *uarch.Counters) float64 { return 100 * c.BranchMispredictRatio() },
		func(p core.PaperRef) float64 { return p.BranchMispPct })
}
