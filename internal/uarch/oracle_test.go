package uarch_test

import (
	"fmt"
	"reflect"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/uarch"
	"dcbench/internal/uarch/bpred"
)

// raggedReader lends a trace in seeded batches of 1…8192 instructions, so
// batch boundaries fall everywhere relative to the warm-up boundary.
type raggedReader struct {
	insts []memtrace.Inst
	state uint64
}

func (r *raggedReader) NextBatch() []memtrace.Inst {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	n := min(1+int(r.state>>33)%8192, len(r.insts))
	b := r.insts[:n:n]
	r.insts = r.insts[n:]
	return b
}

func (r *raggedReader) Read(buf []memtrace.Inst) int {
	n := copy(buf, r.insts)
	r.insts = r.insts[n:]
	return n
}

// oraclePredictors: nil takes the fused default-tournament path; the
// explicit ones go through the Predictor interface.
var oraclePredictors = []struct {
	name string
	new  func() bpred.Predictor
}{
	{"default", func() bpred.Predictor { return nil }},
	{"tournament", func() bpred.Predictor { return bpred.NewTournament(14) }},
	{"gshare", func() bpred.Predictor { return bpred.NewGshare(12) }},
	{"static", func() bpred.Predictor { return bpred.Static{} }},
}

// checkAgainstRef runs one (workload, machine, reader) cell: the reference
// per-instruction loop over the materialised trace, then the batch loop over
// every reader kind, on cores recycled through Reset.
func checkAgainstRef(t *testing.T, cell string, w *core.Workload, trace []memtrace.Inst, cfg uarch.Config, newPred func() bpred.Predictor, ref, dut *uarch.Core) {
	t.Helper()
	n := len(trace)
	cfg.Predictor = newPred()
	ref.Reset(cfg)
	want := *ref.RefRun(memtrace.NewSliceReader(trace))
	if cfg.Warmup > int64(n) && want.Instructions != int64(n) {
		t.Fatalf("%s: reference with warm-up past the trace end counted %d of %d instructions", cell, want.Instructions, n)
	}
	p := w.Profile
	p.MaxInstrs = int64(n)
	readers := []struct {
		name string
		new  func() memtrace.Reader
	}{
		{"slice", func() memtrace.Reader { return memtrace.NewSliceReader(trace) }},
		{"live", func() memtrace.Reader { return memtrace.NewReader(p, w.Gen) }},
		{"readonly", func() memtrace.Reader { return uarch.ReadOnly{R: memtrace.NewSliceReader(trace)} }},
		{"ragged", func() memtrace.Reader { return &raggedReader{insts: trace, state: uint64(n) + uint64(cfg.Warmup)} }},
	}
	for _, rd := range readers {
		cfg.Predictor = newPred()
		dut.Reset(cfg)
		if got := *dut.Run(rd.new()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s reader: batch loop diverges from the reference step\nreference: %+v\nbatch:     %+v", cell, rd.name, want, got)
		}
	}
}

// TestBatchLoopMatchesReferenceStep is the old-vs-new oracle of the step
// loop: on every registry workload, the counters of Core.Run equal those of
// the per-instruction loop it replaced, across ring geometries, warm-up
// boundaries on either side of a batch edge (and past the end of the trace,
// where the counters must cover all of it), predictor paths and reader
// kinds.
func TestBatchLoopMatchesReferenceStep(t *testing.T) {
	const short = 17_000 // > 2 batches: 8191/8192/8193 straddle the first edge
	ws := core.Registry()
	if testing.Short() {
		ws = ws[:4]
	}
	geoms := uarch.RingGeometries()
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Profile
			p.MaxInstrs = short
			trace := memtrace.Collect(memtrace.NewReader(p, w.Gen), short)
			if len(trace) != short {
				t.Fatalf("trace has %d instructions, want %d", len(trace), short)
			}
			for _, g := range geoms {
				ref, dut := uarch.NewCore(g.Cfg), uarch.NewCore(g.Cfg)
				for _, warmup := range []int64{0, 1, 8191, 8192, 8193, short, 250_000} {
					for _, pr := range oraclePredictors {
						cfg := g.Cfg
						cfg.Warmup = warmup
						cell := fmt.Sprintf("%s, warmup %d, %s predictor", g.Name, warmup, pr.name)
						checkAgainstRef(t, cell, w, trace, cfg, pr.new, ref, dut)
					}
				}
			}
		})
	}
}

// TestBatchLoopMatchesReferenceStepShipped is the same oracle at the shipped
// warm-up (250 k instructions of ramp-up) on the default machine: the
// boundary falls mid-batch, 30 batches in. (The full 900 k shipped length is
// pinned by core.TestCountersDigestPinned.)
func TestBatchLoopMatchesReferenceStepShipped(t *testing.T) {
	if testing.Short() {
		t.Skip("long traces")
	}
	const n = 270_000
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 250_000
	ref, dut := uarch.NewCore(cfg), uarch.NewCore(cfg)
	for _, w := range core.Registry() {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Profile
			p.MaxInstrs = n
			trace := memtrace.Collect(memtrace.NewReader(p, w.Gen), n)
			checkAgainstRef(t, "default, warmup 250000, default predictor", w, trace, cfg, oraclePredictors[0].new, ref, dut)
		})
	}
}
