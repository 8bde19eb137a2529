// Package core is the paper's primary contribution rebuilt as a library:
// the characterization methodology of "Characterizing Data Analysis
// Workloads in Data Centers" (IISWC 2013) and the DCBench workload
// registry it produced.
//
// The registry holds all 26 workloads of the paper's evaluation: the eleven
// DCBench data analysis workloads (Table I), the five CloudSuite service
// workloads, SPECFP/SPECINT/SPECweb, and the seven HPCC benchmarks. Each
// entry couples a memtrace generator (the workload's genuine inner-loop
// behaviour plus its software-stack model) with the paper's approximate
// measured values, so every figure of Section IV can be regenerated and
// compared against the original.
package core

import (
	"context"
	"fmt"

	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// Class is a workload class in the paper's taxonomy.
type Class int

// Workload classes.
const (
	DataAnalysis Class = iota // DCBench data analysis workloads
	Service                   // scale-out and traditional services
	Desktop                   // SPEC CPU2006
	HPC                       // HPCC
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case DataAnalysis:
		return "data-analysis"
	case Service:
		return "service"
	case Desktop:
		return "desktop"
	case HPC:
		return "hpc"
	default:
		return "?"
	}
}

// PaperRef records the approximate values the paper reports for one
// workload, read from Figures 3-12 and the explicit numbers in the text.
// They calibrate expectations, not absolute targets: the reproduction aims
// at the same ordering and rough factors.
type PaperRef struct {
	IPC           float64
	KernelPct     float64
	L1IMPKI       float64
	ITLBWalksPKI  float64
	L2MPKI        float64
	L3HitPct      float64
	DTLBWalksPKI  float64
	BranchMispPct float64
}

// Workload is one registry entry.
type Workload struct {
	Name    string
	Suite   string
	Class   Class
	Profile memtrace.Profile
	Gen     func(t *memtrace.Tracer)
	Paper   PaperRef
}

// Result pairs a workload with its simulated counters.
type Result struct {
	Workload *Workload
	Counters *uarch.Counters
}

// Characterize runs the workload's trace through a fresh core model,
// capping the trace at maxInstrs (0 keeps the profile's own cap).
func Characterize(w *Workload, cfg uarch.Config, maxInstrs int64) *Result {
	p := w.Profile
	if maxInstrs > 0 {
		p.MaxInstrs = maxInstrs
	}
	c := uarch.NewCore(cfg)
	counters := c.Run(memtrace.NewReader(p, w.Gen))
	return &Result{Workload: w, Counters: counters}
}

// RegistryJobs maps the registry onto sweep jobs, in registry order.
func RegistryJobs() []sweep.Job {
	ws := Registry()
	jobs := make([]sweep.Job, len(ws))
	for i, w := range ws {
		jobs[i] = sweep.Job{Name: w.Name, Profile: w.Profile, Gen: w.Gen}
	}
	return jobs
}

// CharacterizeSweep runs the full registry through e, which the caller
// owns: fanned out over opt.Workers goroutines, memoized in e across calls
// (unless opt.NoMemo), results in registry order. At a fixed seed the
// counters are bit-identical at any width. Memoized counters are shared
// with e's memo table: treat them as read-only.
func CharacterizeSweep(ctx context.Context, e *sweep.Engine, cfg uarch.Config, maxInstrs int64, opt sweep.RunOptions) ([]*Result, error) {
	ws := Registry()
	counters, err := e.Run(ctx, RegistryJobs(), cfg, maxInstrs, opt)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(ws))
	for i, w := range ws {
		out[i] = &Result{Workload: w, Counters: counters[i]}
	}
	return out, nil
}

// ByName returns the registry entry with the given name.
func ByName(name string) (*Workload, error) {
	for _, w := range Registry() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("core: unknown workload %q", name)
}

// ClassAverage averages a metric over an arbitrary class.
func ClassAverage(results []*Result, class Class, metric func(*uarch.Counters) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if r.Workload.Class == class {
			sum += metric(r.Counters)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
