package uarch_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/uarch"
	"dcbench/internal/uarch/bpred"
)

// raggedReader lends a trace in seeded batches of 1…maxBatch instructions,
// so batch boundaries fall everywhere relative to the warm-up boundary.
type raggedReader struct {
	insts    []memtrace.Inst
	state    uint64
	maxBatch int
}

func (r *raggedReader) NextBatch() []memtrace.Inst {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	n := min(1+int(r.state>>33)%r.maxBatch, len(r.insts))
	b := r.insts[:n:n]
	r.insts = r.insts[n:]
	return b
}

func (r *raggedReader) Read(buf []memtrace.Inst) int {
	n := copy(buf, r.insts)
	r.insts = r.insts[n:]
	return n
}

// oraclePredictors are the predictor kinds: the batch loop's fused call
// must match the reference step's Predict-then-Update for each.
var oraclePredictors = []struct {
	name string
	kind bpred.Kind
}{
	{"tournament", bpred.KindTournament},
	{"bimodal", bpred.KindBimodal},
	{"static", bpred.KindStatic},
}

// checkAgainstRef runs one (workload, machine, reader) cell: the reference
// per-instruction loop over the materialised trace, then the batch loop over
// every reader kind, on cores recycled through Reset.
func checkAgainstRef(t *testing.T, cell string, w *core.Workload, trace []memtrace.Inst, cfg uarch.Config, ref, dut *uarch.Core) {
	t.Helper()
	n := len(trace)
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
		{"ragged", func() memtrace.Reader {
			return &raggedReader{insts: trace, state: uint64(n) + uint64(cfg.Warmup), maxBatch: 8192}
		}},
	}
	for _, rd := range readers {
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
// where the counters must cover all of it), predictor kinds and reader
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
						cfg.Predictor = pr.kind
						cell := fmt.Sprintf("%s, warmup %d, %s predictor", g.Name, warmup, pr.name)
						checkAgainstRef(t, cell, w, trace, cfg, ref, dut)
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
			checkAgainstRef(t, "default, warmup 250000, default predictor", w, trace, cfg, ref, dut)
		})
	}
}

// fuzzRecord is the number of input bytes one fuzzed instruction is decoded
// from.
const fuzzRecord = 10

// decodeStream turns fuzz records into an n-instruction stream, cycling
// through them when there are fewer than n. Op, Dep1, Dep2 and NSrc are
// taken whole, so every op byte, dependency distance and source count
// reaches the step loop. The PC walk, data address and branch target are
// spread so that fetch lines change, caches and TLBs miss at every level and
// taken branches miss the BTB.
func decodeStream(data []byte, n int) []memtrace.Inst {
	nrec := len(data) / fuzzRecord
	out := make([]memtrace.Inst, n)
	pc := uint64(1) << 22
	for i := range out {
		r := data[i%nrec*fuzzRecord:]
		pc += 4 + uint64(r[7]&63)<<(6+2*(r[7]>>6))
		a := binary.LittleEndian.Uint16(r[8:])
		out[i] = memtrace.Inst{
			PC:     pc,
			Addr:   uint64(a>>1) << (6 + 6*(a&1)), // 2 MB of lines or 128 MB of pages
			Target: pc + uint64(r[9])<<2,
			Dep1:   binary.LittleEndian.Uint16(r[1:]),
			Dep2:   binary.LittleEndian.Uint16(r[3:]),
			Op:     memtrace.Op(r[0]),
			Taken:  r[6]&1 != 0,
			Kernel: r[6]&2 != 0,
			NSrc:   r[5],
		}
	}
	return out
}

// FuzzStepMatchesReference is the step-loop oracle on streams no generator
// emits: any op byte (the generator emits five), dependency distances up to
// 65535 (it emits at most 45, never past the start of the trace) and up to
// 255 sources (it emits at most 3). An input is a three-byte header — a
// warm-up, taken mod the stream length + 2 so that it falls anywhere in the
// stream, at its end or past it, and a predictor kind — then instruction records
// for decodeStream. On every ring geometry, the counters of Run over ragged
// batches must equal the reference step's.
//
// One exec is eight Resets and eight runs, and the fuzzer re-runs an input
// for every pair of bytes its minimizer tries to drop, so the exec is kept
// cheap: a short stream, small seeds, and caches shrunk to a few KB (which
// Reset clears in microseconds, and which the decoded addresses miss at
// every level; the L3 keeps a set count that is not a power of two).
func FuzzStepMatchesReference(f *testing.F) {
	const n = 2000
	rec := func(op byte, dep1, dep2 uint16, nsrc, flags, pc byte, addr uint16) []byte {
		return []byte{op, byte(dep1), byte(dep1 >> 8), byte(dep2), byte(dep2 >> 8), nsrc, flags, pc, byte(addr), byte(addr >> 8)}
	}
	// What the generator emits: the five ops, short dependencies, 1–3
	// sources, a sequential PC with the odd jump.
	var gen []byte
	for i := range 12 {
		var jump byte
		if i%8 == 7 {
			jump = 140
		}
		gen = append(gen, rec(byte(i%5), uint16(i%3), uint16(i*7%46), byte(1+i%3), byte(i%4), jump, uint16(i*2741))...)
	}
	// Op bytes across 0–255, source counts past the read ports, and
	// distances past the ring (in range once idx reaches them) or past the
	// stream.
	var wild []byte
	for i := range 16 {
		wild = append(wild, rec(byte(i*17), uint16(i*131), uint16(65535-i*97), byte(i*17), byte(i), byte(i*17), uint16(i*4099))...)
	}
	// Ops 5–7 only, each dependent on the op before: they must execute as
	// ALU ops.
	var high []byte
	for i := range 3 {
		high = append(high, rec(byte(5+i), 1, 0, 1, 0, 0, 0)...)
	}
	// Loads that miss the L1D, each naming a producer 65473 back: further
	// than any instruction of the stream, so no producer at all, though the
	// ring slot that distance aliases (65473 mod 64 = 1) holds the load
	// before it.
	var far []byte
	for i := range 12 {
		far = append(far, rec(byte(memtrace.OpLoad), 65473, 0, 1, 0, 0, uint16(i*4099|1))...)
	}
	for _, tc := range []struct {
		warmup  uint16
		pred    byte
		records []byte
	}{
		{0, 0, gen}, {700, 1, gen}, {n + 1, 2, gen},
		{0, 0, wild}, {1025, 2, wild},
		{0, 0, high}, {n, 1, high},
		{0, 0, far},
	} {
		f.Add(append([]byte{byte(tc.warmup), byte(tc.warmup >> 8), tc.pred}, tc.records...))
	}
	geoms := uarch.RingGeometries()
	cores := make([][2]*uarch.Core, len(geoms))
	for i := range geoms {
		cfg := &geoms[i].Cfg
		cfg.L1ISize, cfg.L1DSize, cfg.L2Size, cfg.L3Size = 8<<10, 8<<10, 32<<10, 192<<10
		cores[i] = [2]*uarch.Core{uarch.NewCore(*cfg), uarch.NewCore(*cfg)}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3+fuzzRecord {
			t.Skip("no instruction record")
		}
		warmup := int64(binary.LittleEndian.Uint16(data)) % (n + 2)
		pr := oraclePredictors[int(data[2])%len(oraclePredictors)]
		trace := decodeStream(data[3:], n)
		for i, g := range geoms {
			ref, dut := cores[i][0], cores[i][1]
			cfg := g.Cfg
			cfg.Warmup = warmup
			cfg.Predictor = pr.kind
			ref.Reset(cfg)
			want := *ref.RefRun(memtrace.NewSliceReader(trace))
			dut.Reset(cfg)
			if got := *dut.Run(&raggedReader{insts: trace, state: uint64(warmup), maxBatch: 1024}); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, warmup %d, %s predictor: batch loop diverges from the reference step\nreference: %+v\nbatch:     %+v", g.Name, warmup, pr.name, want, got)
			}
		}
	})
}

// BenchmarkCoreStepShipped measures the step loop on the streams it really
// runs: the 26 registry workloads, 150 k instructions each, collected once
// outside the timing, each stepped by Reset + Run on the default machine.
// Unlike BenchmarkCoreStep's synthetic trace, it has the registry's op mix,
// dependency distances and code footprints.
func BenchmarkCoreStepShipped(b *testing.B) {
	const n = 150_000
	ws := core.Registry()
	traces := make([][]memtrace.Inst, len(ws))
	for i, w := range ws {
		p := w.Profile
		p.MaxInstrs = n
		traces[i] = memtrace.Collect(memtrace.NewReader(p, w.Gen), n)
	}
	cfg := uarch.DefaultConfig()
	c := uarch.NewCore(cfg)
	b.ResetTimer()
	for range b.N {
		for _, trace := range traces {
			c.Reset(cfg)
			c.Run(memtrace.NewSliceReader(trace))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(traces))*n), "ns/instr")
}
