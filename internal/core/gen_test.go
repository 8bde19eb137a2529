package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"syscall"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
	"dcbench/internal/report"
)

// streamDigest is the SHA-256 of the 26 registry instruction streams, each
// at the shipped job length (900 k) and at the dispatched one (40 k), every
// instruction as its 32 bytes in field order.
const streamDigest = "93c577e7b275f6e1da9f35a494267affb00f88df26ff122d0c59a94c81cb1b51"

// TestStreamDigestPinned pins what the real adapters make the generator
// emit, field by field — the counters digest sees the stream only through
// the core model. (The kernel itself is compared with the generator it
// replaced in memtrace's oracle test, under synthetic adapters.)
func TestStreamDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 24 M instructions")
	}
	o := report.DefaultOptions()
	h := sha256.New()
	buf := make([]byte, 0, 32*8192)
	for _, w := range core.Registry() {
		for _, n := range []int64{o.Warmup + o.Instrs, 40_000} {
			p := w.Profile
			p.MaxInstrs = n
			r := memtrace.NewReader(p, w.Gen)
			for batch := r.NextBatch(); len(batch) > 0; batch = r.NextBatch() {
				buf = buf[:0]
				for i := range batch {
					in := &batch[i]
					buf = binary.LittleEndian.AppendUint64(buf, in.PC)
					buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
					buf = binary.LittleEndian.AppendUint64(buf, in.Target)
					buf = binary.LittleEndian.AppendUint16(buf, in.Dep1)
					buf = binary.LittleEndian.AppendUint16(buf, in.Dep2)
					buf = append(buf, byte(in.Op), b2i(in.Taken), b2i(in.Kernel), in.NSrc)
				}
				h.Write(buf)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamDigest {
		t.Fatalf("stream digest = %s, want %s\nthe generator's output changed: that is a `uarch.ModelVersion` bump, or a bug", got, streamDigest)
	}
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// BenchmarkTracerGen is the generator alone, per workload class: every
// registry stream of the class at the shipped job length, drained through
// NextBatch (no copy, no core). ns/instr is the benchmark harness's
// memtrace.gen_ns_per_instr without its Read copy.
func BenchmarkTracerGen(b *testing.B) {
	o := report.DefaultOptions()
	for _, class := range []core.Class{core.DataAnalysis, core.Service, core.Desktop, core.HPC} {
		b.Run(class.String(), func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				for _, w := range core.Registry() {
					if w.Class != class {
						continue
					}
					p := w.Profile
					p.MaxInstrs = o.Warmup + o.Instrs
					r := memtrace.NewReader(p, w.Gen)
					for batch := r.NextBatch(); len(batch) > 0; batch = r.NextBatch() {
						instrs += int64(len(batch))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkCharacterizeTwoClients is the benchmark harness's cold_jobs shape
// without the server: two closed-loop clients, each running one registry
// workload after another through generator and core at the shipped job
// length. cpu-ms/job is process CPU (user + system) per job — on two cores
// it is also the latency a job sees.
func BenchmarkCharacterizeTwoClients(b *testing.B) {
	o := report.DefaultOptions()
	reg := core.Registry()
	cpu := func() (ms float64) {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	start := cpu()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				core.Characterize(reg[(2*i+c)%len(reg)], o.CoreConfig(), o.Warmup+o.Instrs)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric((cpu()-start)/float64(2*b.N), "cpu-ms/job")
}
