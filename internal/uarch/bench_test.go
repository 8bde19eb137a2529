package uarch

import (
	"reflect"
	"testing"

	"dcbench/internal/memtrace"
)

// ringGeometries are the structure sizes the cursor invariants and the
// step-loop oracle run over. The odd and tiny rings are deliberately
// odd-sized so a masking shortcut or an off-by-one in a wrap test cannot pass
// by accident.
var ringGeometries = []struct {
	name string
	mut  func(*Config)
}{
	{"default", func(*Config) {}},
	{"odd-rings", func(cfg *Config) {
		cfg.ROB = 97
		cfg.RS = 23
		cfg.LQ = 31
		cfg.SQ = 17
		cfg.MSHRs = 7
		cfg.IssueWidth = 5
	}},
	{"tiny-rings", func(cfg *Config) {
		cfg.ROB = 3
		cfg.RS = 2
		cfg.LQ = 2
		cfg.SQ = 2
		cfg.MSHRs = 1
		cfg.IssueWidth = 1
	}},
	// Every instruction closes its rename group and its commit group: the
	// group arithmetic has no slack.
	{"narrow", func(cfg *Config) {
		cfg.FetchWidth = 1
		cfg.RenameWidth = 1
		cfg.CommitWidth = 1
		cfg.RenameReadPorts = 1
	}},
}

// TestRingCursorInvariants pins the wrap-around cursors that replaced the
// per-instruction modulo ring indexing: after any run, every cursor must
// equal the count of its ring's advances mod the ring length — exactly
// the index the old `%` computed — and the run must be deterministic.
func TestRingCursorInvariants(t *testing.T) {
	const n = 120_000
	for _, tc := range ringGeometries {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)

			trace := memtrace.Collect(randomTrace(9, n), n)
			var loads, stores int64
			for i := range trace {
				switch trace[i].Op {
				case memtrace.OpLoad:
					loads++
				case memtrace.OpStore:
					stores++
				}
			}

			c := NewCore(cfg)
			first := *c.Run(memtrace.NewSliceReader(trace))

			// Every-instruction rings advance once per instruction.
			if got, want := int64(c.robCur), c.idx%int64(cfg.ROB); got != want {
				t.Errorf("robCur = %d, want idx %% ROB = %d", got, want)
			}
			if got, want := int64(c.rsCur), c.idx%int64(cfg.RS); got != want {
				t.Errorf("rsCur = %d, want idx %% RS = %d", got, want)
			}
			if got, want := int64(c.winCur), c.idx%int64(cfg.IssueWidth); got != want {
				t.Errorf("winCur = %d, want idx %% IssueWidth = %d", got, want)
			}
			// Per-class rings advance once per load / store.
			if got, want := int64(c.lqCur), loads%int64(cfg.LQ); got != want {
				t.Errorf("lqCur = %d, want loads %% LQ = %d", got, want)
			}
			if got, want := int64(c.sqCur), stores%int64(cfg.SQ); got != want {
				t.Errorf("sqCur = %d, want stores %% SQ = %d", got, want)
			}
			// The MSHR ring advances once per L1D miss (loads and store
			// drains both walk dataAccess, which probes the L1D exactly
			// once per call).
			if got, want := int64(c.mshrCur), c.l1d.Misses%int64(cfg.MSHRs); got != want {
				t.Errorf("mshrCur = %d, want L1D misses %% MSHRs = %d", got, want)
			}
			if c.idx != n {
				t.Errorf("idx = %d, want %d", c.idx, n)
			}

			// Same trace, fresh core: bit-identical counters.
			second := *NewCore(cfg).Run(memtrace.NewSliceReader(trace))
			if !reflect.DeepEqual(first, second) {
				t.Errorf("repeat run diverges:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// ReadOnly hides a reader's NextBatch, forcing Run onto its Read fallback
// (exported for the oracle in the external test package).
type ReadOnly struct{ R memtrace.Reader }

func (r ReadOnly) Read(buf []memtrace.Inst) int { return r.R.Read(buf) }

// BenchmarkCoreStep measures the step loop three ways on one synthetic
// trace: "slice" is the loop itself (trace pre-collected, lent whole, no
// generator in the timing); "live" is what a cold job pays, the generator
// goroutine running beside the core and handing its batches over through
// NextBatch; "readonly" is the Read fallback for a reader that cannot lend,
// a copy into the core's buffer per batch. BenchmarkCoreStepShipped runs the
// registry's streams instead.
func BenchmarkCoreStep(b *testing.B) {
	const n = 200_000
	trace := memtrace.Collect(randomTrace(11, n), n)
	for _, bc := range []struct {
		name string
		new  func() memtrace.Reader
	}{
		{"slice", func() memtrace.Reader { return memtrace.NewSliceReader(trace) }},
		{"live", func() memtrace.Reader { return randomTrace(11, n) }},
		{"readonly", func() memtrace.Reader { return ReadOnly{memtrace.NewSliceReader(trace)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			c := NewCore(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset(cfg)
				c.Run(bc.new())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/instr")
		})
	}
}
