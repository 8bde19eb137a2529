package cache

import "testing"

// benchGeometries are the two cache shapes whose access cost matters: L1D
// (probed by every load and store drain, power-of-two sets) and the paper's
// 12 MB 16-way L3 (12288 sets, the one modulo-indexed level).
var benchGeometries = []struct {
	name       string
	size, ways int
}{
	{"L1D", 32 << 10, 8},
	{"L3", 12 << 20, 16},
}

// BenchmarkAccess measures the three costs of the MRU-ordered sets: a
// re-touch of the MRU line (one compare), a hit at the deepest way (a full
// probe plus a whole-set shift), and a thrashing miss stream (a full probe,
// a whole-set shift and a cold set every time).
func BenchmarkAccess(b *testing.B) {
	for _, g := range benchGeometries {
		b.Run(g.name+"/mru-hit", func(b *testing.B) {
			c := New(g.name, g.size, g.ways, 64)
			c.Access(0x1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(0x1000)
			}
		})
		b.Run(g.name+"/deep-hit", func(b *testing.B) {
			// ways lines of one set touched round-robin: every access hits
			// the last way.
			c := New(g.name, g.size, g.ways, 64)
			stride := uint64(c.sets) * 64
			for w := 0; w < g.ways; w++ {
				c.Access(uint64(w) * stride)
			}
			b.ResetTimer()
			w := 0
			for i := 0; i < b.N; i++ {
				c.Access(uint64(w) * stride)
				if w++; w == g.ways {
					w = 0
				}
			}
			if c.Misses != int64(g.ways) {
				b.Fatalf("misses = %d, want the %d cold ones only", c.Misses, g.ways)
			}
		})
		b.Run(g.name+"/thrash", func(b *testing.B) {
			c := New(g.name, g.size, g.ways, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i*2654435761) & 0xFFFFFFFF)
			}
		})
	}
}
