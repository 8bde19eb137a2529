package store_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dcbench/internal/store"
	"dcbench/internal/uarch"
)

// fill writes n records spread across the keyspace.
func fill(b *testing.B, s *store.Store, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(fmt.Sprintf("bench-%d", i), uint64(i)), &uarch.Counters{Cycles: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLen pins the acceptance criterion that Len is O(1): its cost
// must stay flat as the record count grows 10x. The v1 store walked the
// whole tree here; the v2 store reads a counter maintained by the index.
func BenchmarkLen(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			fill(b, s, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Len(); got != n {
					b.Fatalf("Len = %d, want %d", got, n)
				}
			}
		})
	}
}

// BenchmarkOpenWarm measures the startup scan over a warm store: one
// listing per shard and one lstat per record for its size and mtime.
func BenchmarkOpenWarm(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			fill(b, s, n)
			s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if got := w.Len(); got != n {
					b.Fatalf("warm Len = %d, want %d", got, n)
				}
				w.Close()
			}
		})
	}
}

// BenchmarkPutParallel exercises the per-shard locking under a write-heavy
// parallel load — the sweep write-through pattern.
func BenchmarkPutParallel(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		g := seq.Add(1) // distinct keyspace per goroutine: cross-shard writes
		i := 0
		for pb.Next() {
			i++
			k := testKey(fmt.Sprintf("p-%d-%d", g, i), uint64(i))
			if err := s.Put(k, &uarch.Counters{Cycles: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGetHit is the warm-read path: one record fetch plus the LRU
// touch.
func BenchmarkGetHit(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k := testKey("hot", 1)
	if err := s.Put(k, &uarch.Counters{Cycles: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(k); !ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}
