package core_test

import (
	"context"
	"math"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// paperCounters are the eight counters core.PaperRef records, with the mean
// absolute percentage error of the registry's simulated values against the
// paper's at report.DefaultOptions() — over the workloads that have a
// reference value, the benchmark's construction of core.paper_ipc_mape_pct
// and core.paper_l2mpki_mape_pct. The ceilings are the model's values as of
// ModelVersion 1; they only ever move down.
var paperCounters = []struct {
	name    string
	sim     func(*uarch.Counters) float64
	ref     func(core.PaperRef) float64
	ceiling float64 // MAPE, percent
}{
	{"IPC", (*uarch.Counters).IPC, func(p core.PaperRef) float64 { return p.IPC }, 46.2333},
	{"kernel share %", func(c *uarch.Counters) float64 { return 100 * c.KernelShare() }, func(p core.PaperRef) float64 { return p.KernelPct }, 46.4087},
	{"L1I MPKI", (*uarch.Counters).L1IMPKI, func(p core.PaperRef) float64 { return p.L1IMPKI }, 63.4303},
	{"ITLB walks PKI", (*uarch.Counters).ITLBWalksPKI, func(p core.PaperRef) float64 { return p.ITLBWalksPKI }, 574.0710},
	{"L2 MPKI", (*uarch.Counters).L2MPKI, func(p core.PaperRef) float64 { return p.L2MPKI }, 77.4951},
	{"L3 hit %", func(c *uarch.Counters) float64 { return 100 * c.L3HitRatio() }, func(p core.PaperRef) float64 { return p.L3HitPct }, 66.0755},
	{"DTLB walks PKI", (*uarch.Counters).DTLBWalksPKI, func(p core.PaperRef) float64 { return p.DTLBWalksPKI }, 481.2931},
	{"branch mispredict %", func(c *uarch.Counters) float64 { return 100 * c.BranchMispredictRatio() }, func(p core.PaperRef) float64 { return p.BranchMispPct }, 157.9401},
}

// TestCalibrationReport is the fidelity gate: no counter's error against the
// paper may rise above its committed ceiling, and one that falls must take
// its ceiling down with it, so the ceilings stay the model's actual values —
// which also makes them a second pin (beside TestCountersDigestPinned) that a
// bit-identical change is bit-identical. With -v it prints every workload's
// simulated counters next to the paper's, and the stall breakdown.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	o := report.DefaultOptions()
	results, err := core.CharacterizeSweep(context.Background(), sweep.NewEngine(), o.CoreConfig(), o.Warmup+o.Instrs, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-18s %5s/%5s %5s/%5s %6s/%6s %6s/%6s %6s/%6s %5s/%5s %6s/%6s %5s/%5s | stalls f/rat/lb/rs/sb/rob",
		"workload", "ipc", "ref", "krn%", "ref", "l1i", "ref", "itlbw", "ref", "l2", "ref", "l3h%", "ref", "dtlbw", "ref", "br%", "ref")
	for _, r := range results {
		c, p, b := r.Counters, r.Workload.Paper, r.Counters.StallBreakdown()
		t.Logf("%-18s %5.2f/%5.2f %5.1f/%5.1f %6.1f/%6.1f %6.3f/%6.3f %6.1f/%6.1f %5.1f/%5.1f %6.2f/%6.2f %5.1f/%5.1f | %.2f %.2f %.2f %.2f %.2f %.2f",
			r.Workload.Name,
			c.IPC(), p.IPC,
			100*c.KernelShare(), p.KernelPct,
			c.L1IMPKI(), p.L1IMPKI,
			c.ITLBWalksPKI(), p.ITLBWalksPKI,
			c.L2MPKI(), p.L2MPKI,
			100*c.L3HitRatio(), p.L3HitPct,
			c.DTLBWalksPKI(), p.DTLBWalksPKI,
			100*c.BranchMispredictRatio(), p.BranchMispPct,
			b[0], b[1], b[2], b[3], b[4], b[5])
	}
	for _, pc := range paperCounters {
		sum, n := 0.0, 0
		for _, r := range results {
			if ref := pc.ref(r.Workload.Paper); ref > 0 {
				sum += 100 * math.Abs(pc.sim(r.Counters)-ref) / ref
				n++
			}
		}
		mape := sum / float64(n)
		t.Logf("%-20s MAPE %8.4f %% over %d workloads (ceiling %.4f)", pc.name, mape, n, pc.ceiling)
		switch {
		case mape > pc.ceiling+0.00005:
			t.Errorf("%s: MAPE against the paper rose to %.4f %%, ceiling %.4f %%", pc.name, mape, pc.ceiling)
		case mape < pc.ceiling-0.00005:
			t.Errorf("%s: MAPE against the paper fell to %.4f %%: lower its ceiling from %.4f", pc.name, mape, pc.ceiling)
		}
	}
}
