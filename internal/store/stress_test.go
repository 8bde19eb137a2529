package store_test

import (
	"fmt"
	"sync"
	"testing"

	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
)

// stressValue is the deterministic counter file goroutine g writes for its
// key i at revision rev — the serial oracle the concurrent runs are checked
// against.
func stressValue(g, i, rev int) *uarch.Counters {
	return &uarch.Counters{
		Cycles:       int64(1_000_000*g + 1_000*i + rev),
		Instructions: int64(g ^ i),
		L2Misses:     int64(rev),
	}
}

// TestConcurrentStress hammers one store from many goroutines — mixed
// Put/Get/Len/Evict across shards, each goroutine owning a disjoint key
// range — and then replays a serial oracle over the final state: no lost
// writes, every read byte-identical to the last write. Run under -race
// (CI does) this is also the store's data-race gate.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		keysPer    = 24
		revisions  = 3
	)
	s, err := store.OpenWith(t.TempDir(), store.OpenOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := func(g, i int) sweep.Key { return testKey(fmt.Sprintf("g%d-k%d", g, i), uint64(i)) }
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	done := make(chan struct{})

	// A chaos goroutine keeps the maintenance paths busy: Len snapshots and
	// (budget-free, hence removal-free) eviction passes interleave with the
	// writers, so their locking is exercised against every other operation.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.Len()
				s.Evict()
				s.Stats()
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rev := 0; rev < revisions; rev++ {
				for i := 0; i < keysPer; i++ {
					k := key(g, i)
					if err := s.Put(k, stressValue(g, i, rev)); err != nil {
						errs <- fmt.Errorf("g%d put: %w", g, err)
						return
					}
					c, ok, err := s.Get(k)
					if err != nil || !ok {
						errs <- fmt.Errorf("g%d read-own-write %d: ok=%v err=%v", g, i, ok, err)
						return
					}
					if *c != *stressValue(g, i, rev) {
						errs <- fmt.Errorf("g%d key %d rev %d: got %+v", g, i, rev, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial oracle over the final state.
	if n := s.Len(); n != goroutines*keysPer {
		t.Fatalf("Len = %d, want %d (lost or duplicated writes)", n, goroutines*keysPer)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < keysPer; i++ {
			c, ok, err := s.Get(key(g, i))
			if err != nil || !ok {
				t.Fatalf("final read g%d key %d: ok=%v err=%v", g, i, ok, err)
			}
			if want := stressValue(g, i, revisions-1); *c != *want {
				t.Fatalf("final read g%d key %d = %+v, want %+v", g, i, c, want)
			}
		}
	}
	if st := s.Stats(); st.Writes != goroutines*keysPer*revisions || st.Corrupt != 0 {
		t.Fatalf("Stats = %+v, want %d writes and no corruption", st, goroutines*keysPer*revisions)
	}
}

// TestConcurrentStressWithEviction repeats the mix with a tight byte
// budget, about a quarter of the records written: under concurrent LRU
// eviction a Get may miss, but it must never return anything other than
// the exact last value written for its key.
func TestConcurrentStressWithEviction(t *testing.T) {
	const (
		goroutines = 8
		keysPer    = 20
	)
	budget := 40 * recordSize(t)
	s, err := store.OpenWith(t.TempDir(), store.OpenOptions{Shards: 4, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := func(g, i int) sweep.Key { return testKey(fmt.Sprintf("e%d-k%d", g, i), uint64(i)) }
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rev := 0; rev < 2; rev++ {
				for i := 0; i < keysPer; i++ {
					k := key(g, i)
					want := stressValue(g, i, rev)
					if err := s.Put(k, want); err != nil {
						errs <- fmt.Errorf("g%d put: %w", g, err)
						return
					}
					c, ok, err := s.Get(k)
					if err != nil {
						errs <- fmt.Errorf("g%d get: %w", g, err)
						return
					}
					if ok && *c != *want {
						errs <- fmt.Errorf("g%d key %d rev %d: eviction corrupted a read: %+v", g, i, rev, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Evict()
	if n := s.Bytes(); n > budget {
		t.Fatalf("Bytes = %d, want <= budget %d", n, budget)
	}
	if st := s.Stats(); st.Evictions == 0 || st.Corrupt != 0 {
		t.Fatalf("Stats = %+v, want evictions > 0 and no corruption", st)
	}
}
