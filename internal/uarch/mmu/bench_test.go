package mmu

import "testing"

// BenchmarkTLBAccess measures the DTLB geometry (64 entries, 4-way) on the
// three access shapes of the MRU-ordered sets: a re-touch of the MRU page
// (one compare), a hit at the deepest way (full probe plus a whole-set
// shift) and a thrashing miss stream.
func BenchmarkTLBAccess(b *testing.B) {
	const entries, ways = 64, 4
	b.Run("DTLB/mru-hit", func(b *testing.B) {
		t := NewTLB(entries, ways)
		t.access(0x1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.access(0x1000)
		}
	})
	b.Run("DTLB/deep-hit", func(b *testing.B) {
		// ways pages of one set touched round-robin: every access hits the
		// last way.
		t := NewTLB(entries, ways)
		const stride = entries / ways << pageShift
		for w := uint64(0); w < ways; w++ {
			t.access(w * stride)
		}
		b.ResetTimer()
		w := uint64(0)
		for i := 0; i < b.N; i++ {
			t.access(w * stride)
			if w++; w == ways {
				w = 0
			}
		}
		if t.Misses != ways {
			b.Fatalf("misses = %d, want the %d cold ones only", t.Misses, ways)
		}
	})
	b.Run("DTLB/thrash", func(b *testing.B) {
		t := NewTLB(entries, ways)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.access(uint64(i*2654435761) & 0xFFFFFFFFFF)
		}
	})
}

// BenchmarkTranslate is the two-level walk the core pays per memory
// instruction, on a stream that mixes L1 hits, L2 hits and page walks.
func BenchmarkTranslate(b *testing.B) {
	h := &Hierarchy{L1: NewTLB(64, 4), L2: NewTLB(512, 4), WalkLatency: 120, L2Latency: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Translate(uint64(i*2654435761) & (8<<20 - 1))
	}
}
