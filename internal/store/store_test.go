package store_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcbench/internal/memtrace"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

func testKey(name string, seed uint64) sweep.Key {
	return sweep.Key{
		Name:      name,
		Profile:   memtrace.Profile{Seed: seed, MaxInstrs: 50_000, CodeKB: 128},
		ConfigFP:  uarch.DefaultConfig().Fingerprint(),
		MaxInstrs: 50_000,
	}
}

// quietLog keeps expected-failure warnings out of test output.
func quietLog(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeClock is an injectable time source for LRU tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey("sort", 42)
	want := &uarch.Counters{Cycles: 123, Instructions: 456, L2Misses: 7}
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v, want miss", ok, err)
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if *got != *want {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
	// A different key — even differing only in seed — must miss.
	if _, ok, _ := s.Get(testKey("sort", 43)); ok {
		t.Fatal("Get with different seed hit the wrong record")
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Writes != 1 || st.Records != 1 {
		t.Fatalf("Stats = %+v, want 1 hit, 2 misses, 1 write, 1 record", st)
	}
}

// TestSharedAcrossOpens is the cross-process contract, approximated with
// two Store handles on one directory.
func TestSharedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	a, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	k := testKey("grep", 1)
	if err := a.Put(k, &uarch.Counters{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	b, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if c, ok, err := b.Get(k); err != nil || !ok || c.Cycles != 9 {
		t.Fatalf("second handle Get = %+v ok=%v err=%v", c, ok, err)
	}
	if n := b.Len(); n != 1 {
		t.Fatalf("reopened Len = %d, want 1 (index rebuilt from the listing)", n)
	}
	// A record written by one live handle is visible to another opened
	// before the write: Get falls back to disk and adopts it.
	k2 := testKey("grep", 2)
	if err := a.Put(k2, &uarch.Counters{Cycles: 11}); err != nil {
		t.Fatal(err)
	}
	if c, ok, _ := b.Get(k2); !ok || c.Cycles != 11 {
		t.Fatalf("cross-handle Get = %+v ok=%v, want adoption of foreign record", c, ok)
	}
	if n := b.Len(); n != 2 {
		t.Fatalf("Len after adoption = %d, want 2", n)
	}
}

func TestSchemaMismatchRefusedUntouched(t *testing.T) {
	// "1" is the retired flat layout: no longer migrated, refused like any
	// other version this build does not read.
	for _, version := range []string{"99", "1"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "SCHEMA"), []byte(version+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), "schema version \""+version+"\"") {
			t.Fatalf("Open on schema %s = %v, want schema error", version, err)
		}
		// Refusal must leave no side effects: a foreign-schema store must
		// not grow this build's layout inside it.
		for _, planted := range []string{"v2"} {
			if _, err := os.Stat(filepath.Join(dir, planted)); !os.IsNotExist(err) {
				t.Fatalf("Open planted %s inside a refused schema-%s store (stat err = %v)", planted, version, err)
			}
		}
	}
}

func TestForeignDirRefusedUntouched(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), "SCHEMA") {
		t.Fatalf("Open on a non-empty non-store dir = %v, want refusal", err)
	}
	for _, planted := range []string{"SCHEMA", "v2"} {
		if _, err := os.Stat(filepath.Join(dir, planted)); !os.IsNotExist(err) {
			t.Fatalf("Open planted %s in a refused directory", planted)
		}
	}
}

// recordFiles returns every record file under the store's data directory
// (stray temp files are not records).
func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.Walk(filepath.Join(dir, "v2"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") {
			out = append(out, p)
		}
		return nil
	})
	return out
}

func TestCorruptRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey("hmm", 5)
	if err := s.Put(k, &uarch.Counters{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	recs := recordFiles(t, dir)
	if len(recs) != 1 {
		t.Fatalf("record files = %d, want 1", len(recs))
	}
	// Truncate the record in place: Get must degrade to a counted miss.
	if err := os.WriteFile(recs[0], []byte(`{"schema":2,"kind"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("corrupt record Get = ok=%v err=%v, want clean miss", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Stats.Corrupt = %d, want 1", st.Corrupt)
	}
	// A flipped payload byte that still parses as JSON must also be caught
	// (the checksum, not the parser, is the last line of defense).
	if err := s.Put(k, &uarch.Counters{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"Cycles":1`, `"Cycles":7`, 1)
	if mutated == string(data) {
		t.Fatal("test setup: payload byte not found")
	}
	if err := os.WriteFile(recs[0], []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(k); ok {
		t.Fatal("checksum failed to catch a mutated payload digit")
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Fatalf("Stats.Corrupt = %d, want 2", st.Corrupt)
	}
	// And Put must repair it.
	if err := s.Put(k, &uarch.Counters{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	if c, ok, _ := s.Get(k); !ok || c.Cycles != 2 {
		t.Fatalf("Get after repair = %+v ok=%v", c, ok)
	}
}

// TestBackendSwallowsFailure: the MemoBackend adapter must degrade a broken
// store to plain misses, never break the sweep.
func TestBackendSwallowsFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Backend(quietLog(t))
	// Remove the data directory out from under the store: Store fails
	// internally, Load reports a miss; neither panics nor errors out.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	k := testKey("pagerank", 2)
	b.Store(context.Background(), k, &uarch.Counters{Cycles: 3})
	if _, ok := b.Load(context.Background(), k); ok {
		t.Fatal("Load on a broken store reported a hit")
	}
}

// sameSizeKey is the i-th of a family of keys (i < 900) whose records,
// holding sameSizeValue, all encode to the same width: the seed always has
// three digits. Byte-budget tests need equal sizes to predict the LRU
// victims exactly.
func sameSizeKey(i int) sweep.Key { return testKey("w", uint64(100+i)) }

var sameSizeValue = &uarch.Counters{Cycles: 1}

// recordSize calibrates the on-disk size of one sameSizeKey record.
func recordSize(t *testing.T) int64 {
	t.Helper()
	calib, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer calib.Close()
	if err := calib.Put(sameSizeKey(0), sameSizeValue); err != nil {
		t.Fatal(err)
	}
	if calib.Bytes() <= 0 {
		t.Fatalf("calibration Bytes = %d, want > 0", calib.Bytes())
	}
	return calib.Bytes()
}

func TestEvictionLRU(t *testing.T) {
	recSize := recordSize(t)
	clock := newClock()
	s, err := store.OpenWith(t.TempDir(), store.OpenOptions{
		MaxBytes: 8 * recSize, Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]sweep.Key, 12)
	for i := range keys {
		keys[i] = sameSizeKey(i)
		if err := s.Put(keys[i], sameSizeValue); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second)
	}
	// The ninth and the eleventh Put each overflow the budget by one record
	// and trim to 10% below it: two victims each time.
	if n := s.Len(); n != 8 {
		t.Fatalf("Len after capped puts = %d, want 8", n)
	}
	if st := s.Stats(); st.Evictions != 4 {
		t.Fatalf("Evictions = %d, want 4", st.Evictions)
	}
	// The four oldest writes are the victims. Each read is stamped a
	// second apart, so the survivors' recency order is their key order.
	for i, k := range keys {
		_, ok, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := i >= 4; ok != want {
			t.Fatalf("key %d present=%v, want %v (LRU order)", i, ok, want)
		}
		clock.advance(time.Second)
	}
	// A Get refreshes recency: key 4 must now outlive fresher-but-untouched
	// keys when the next eviction pass runs.
	if _, ok, _ := s.Get(keys[4]); !ok {
		t.Fatal("key 4 vanished early")
	}
	for i := 12; i < 15; i++ {
		clock.advance(time.Second)
		if err := s.Put(sameSizeKey(i), sameSizeValue); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := s.Get(keys[4]); !ok {
		t.Fatal("recently read key 4 was evicted before stale keys")
	}
	if _, ok, _ := s.Get(keys[5]); ok {
		t.Fatal("stale key 5 survived eviction ahead of fresher keys")
	}
}

func TestEvictionMaxBytes(t *testing.T) {
	recSize := recordSize(t)
	clock := newClock()
	dir := t.TempDir()
	budget := 8*recSize + recSize/2 // room for 8 records, not 9
	s, err := store.OpenWith(dir, store.OpenOptions{
		MaxBytes: budget, Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]sweep.Key, 12)
	for i := range keys {
		keys[i] = sameSizeKey(i)
		if err := s.Put(keys[i], sameSizeValue); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second)
	}
	if got := s.Bytes(); got > budget {
		t.Fatalf("Bytes after capped puts = %d, want <= the %d budget", got, budget)
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes != s.Bytes() {
		t.Fatalf("Stats = %+v, want nonzero evictions and Bytes matching", st)
	}
	// LRU order: the oldest writes are the victims, the newest survive.
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Fatal("oldest key survived the byte budget")
	}
	if _, ok, _ := s.Get(keys[11]); !ok {
		t.Fatal("newest key was evicted")
	}
	// The byte ledger survives a reopen: the listed record sizes must sum
	// to the same total.
	want := s.Bytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.OpenWith(dir, store.OpenOptions{Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Bytes(); got != want {
		t.Fatalf("Bytes after reopen = %d, want %d", got, want)
	}

	// An explicit Evict with a tighter budget trims to it exactly.
	s3, err := store.OpenWith(t.TempDir(), store.OpenOptions{
		MaxBytes: 2 * recSize, Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for i := 0; i < 2; i++ {
		if err := s3.Put(testKey("w", uint64(i)), &uarch.Counters{Cycles: 1}); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second)
	}
	if got := s3.Len(); got != 2 {
		t.Fatalf("Len under exact budget = %d, want 2 (no eviction below the cap)", got)
	}
}

// TestDefaultBudget: a store opened without a budget enforces
// DefaultMaxBytes — there is no unlimited store. Three sparse orphan record
// files, which Open adopts at their stat size and mtime, fill the budget to
// one byte short without writing 256 MiB; the next Put then evicts the
// least recently used of them.
func TestDefaultBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	shard0 := filepath.Join(dir, "v2", "shard-00")
	third := store.DefaultMaxBytes / 3
	old := time.Now().Add(-time.Hour)
	for i := 1; i <= 3; i++ {
		// Addresses ending in 0 route to shard 0 of the 16.
		path := filepath.Join(shard0, fmt.Sprintf("%015x0.json", i))
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, third); err != nil {
			t.Fatal(err)
		}
		stamp := old.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	s, err = store.OpenWith(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.Bytes(), 3*third; got != want || want >= store.DefaultMaxBytes {
		t.Fatalf("Bytes at open = %d, want %d (just under the %d default)", got, want, store.DefaultMaxBytes)
	}
	if ev := s.Stats().Evictions; ev != 0 {
		t.Fatalf("open within the default budget evicted %d records", ev)
	}
	k := sameSizeKey(0)
	if err := s.Put(k, sameSizeValue); err != nil {
		t.Fatal(err)
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("Put past the default budget evicted %d records, want 1", ev)
	}
	if got := s.Bytes(); got > store.DefaultMaxBytes {
		t.Fatalf("Bytes after eviction = %d, over the %d default", got, store.DefaultMaxBytes)
	}
	if _, err := os.Stat(filepath.Join(shard0, fmt.Sprintf("%015x0.json", 1))); !os.IsNotExist(err) {
		t.Fatalf("least recently used record survived: stat err = %v", err)
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("fresh record after eviction: ok=%v err=%v", ok, err)
	}
}

// TestNegativeBudgetRefused: a negative -store-max-bytes is an operator
// error, not a spelling of "unlimited".
func TestNegativeBudgetRefused(t *testing.T) {
	dir := t.TempDir()
	_, err := store.OpenWith(dir, store.OpenOptions{MaxBytes: -1})
	if err == nil || !strings.Contains(err.Error(), "-store-max-bytes") {
		t.Fatalf("OpenWith(MaxBytes: -1) err = %v, want a refusal naming -store-max-bytes", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused open wrote %d entries into the directory", len(entries))
	}
}

// TestOpenReconcilesIndexWithDirectory: the in-memory index is a cache,
// the record files are the truth. A record removed behind the store's back
// must not be counted by the next Open.
func TestOpenReconcilesIndexWithDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]sweep.Key, 3)
	for i := range keys {
		keys[i] = testKey("r", uint64(i))
		if err := s.Put(keys[i], &uarch.Counters{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Lost record: the previous process indexed a file that is gone.
	recs := recordFiles(t, dir)
	if err := os.Remove(recs[0]); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Len(); n != 2 {
		t.Fatalf("Len after record loss = %d, want 2 (the lost record is not counted)", n)
	}
}

// TestReadRecencySurvivesReopen: a Get's LRU stamp outlives the process
// that took it. Records a, b and c are written in that order and a is then
// read — in the writing store, or through a second store sharing the
// directory (opened before the writes, so its Get adopts a). After a
// reopen, the next Put overflows the budget by one record: b, the least
// recently used, must go and a must stay.
func TestReadRecencySurvivesReopen(t *testing.T) {
	recSize := recordSize(t)
	for _, viaSecond := range []bool{false, true} {
		t.Run(fmt.Sprintf("second_store=%v", viaSecond), func(t *testing.T) {
			clock := newClock()
			dir := t.TempDir()
			w, err := store.OpenWith(dir, store.OpenOptions{Now: clock.now})
			if err != nil {
				t.Fatal(err)
			}
			r := w
			if viaSecond {
				if r, err = store.OpenWith(dir, store.OpenOptions{Now: clock.now}); err != nil {
					t.Fatal(err)
				}
			}
			a, b, c, d := sameSizeKey(0), sameSizeKey(1), sameSizeKey(2), sameSizeKey(3)
			for _, k := range []sweep.Key{a, b, c} {
				clock.advance(time.Second)
				if err := w.Put(k, sameSizeValue); err != nil {
					t.Fatal(err)
				}
			}
			clock.advance(time.Second)
			if _, ok, err := r.Get(a); err != nil || !ok {
				t.Fatalf("Get a: ok=%v err=%v", ok, err)
			}
			w.Close()
			if r != w {
				r.Close()
			}

			// Room for three records and a half: the fourth Put trims to 90%
			// of that, one victim.
			s, err := store.OpenWith(dir, store.OpenOptions{MaxBytes: 3*recSize + recSize/2, Now: clock.now})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			clock.advance(time.Second)
			if err := s.Put(d, sameSizeValue); err != nil {
				t.Fatal(err)
			}
			if ev := s.Stats().Evictions; ev != 1 {
				t.Fatalf("Evictions = %d, want 1", ev)
			}
			for _, tc := range []struct {
				name string
				k    sweep.Key
				want bool
			}{{"a", a, true}, {"b", b, false}, {"c", c, true}, {"d", d, true}} {
				if _, ok, _ := s.Get(tc.k); ok != tc.want {
					t.Fatalf("%s present=%v, want %v (a's read must outrank b's older write)", tc.name, ok, tc.want)
				}
			}
		})
	}
}

// TestOpenCleansStaleTempFiles: a crash between CreateTemp and rename
// leaves a .write-* file no other pass owns; Open removes it once it is
// old enough that no live process can still be about to rename it.
func TestOpenCleansStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("t", 1), &uarch.Counters{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	shardDir := filepath.Join(dir, "v2", "shard-00")
	stale := filepath.Join(shardDir, ".write-stale")
	fresh := filepath.Join(shardDir, ".write-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half a record"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open (stat err = %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file (possibly a live process's in-flight write) was removed: %v", err)
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("Len = %d, want temp files never counted as records", n)
	}
}

func TestClusterStatsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: 0.004, Seed: 42}
	want := &workloads.Stats{
		Workload: "Sort", Slaves: 4, Makespan: 123.456, Jobs: 3,
		InputSimBytes: 1 << 30, DiskWriteOps: 777, DiskWriteBytes: 1 << 20,
		NetBytes: 42, CoreSeconds: 9.875,
		Quality: map[string]float64{"sorted_fraction": 1},
	}
	if _, ok, err := s.GetClusterStats(k); err != nil || ok {
		t.Fatalf("empty GetClusterStats = ok=%v err=%v", ok, err)
	}
	if err := s.PutClusterStats(k, want); err != nil {
		t.Fatal(err)
	}
	// Counters and cluster records share the store but never each other's
	// namespace.
	if _, ok, _ := s.Get(testKey("Sort", 42)); ok {
		t.Fatal("a cluster record answered a counters Get")
	}
	s.Close()
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.GetClusterStats(k)
	if err != nil || !ok {
		t.Fatalf("GetClusterStats after reopen: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GetClusterStats = %+v, want %+v", got, want)
	}
	if _, ok, _ := s2.GetClusterStats(workloads.StatsKey{Workload: "Sort", Slaves: 8, Scale: 0.004, Seed: 42}); ok {
		t.Fatal("GetClusterStats hit the wrong slave count")
	}
}

// TestStatsBackendRoundTrip pins the workloads.StatsBackend adapter and its
// interplay with the StatsCache: a fresh cache over a warm store loads
// every run from disk instead of re-running.
func TestStatsBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.StatsBackend(quietLog(t))
	k := workloads.StatsKey{Workload: "Grep", Slaves: 4, Scale: 0.01, Seed: 7}
	ran := 0
	run := func() (*workloads.Stats, error) {
		ran++
		return &workloads.Stats{Workload: "Grep", Slaves: 4, Makespan: 5}, nil
	}
	cold := workloads.NewStatsCache(b)
	if _, err := cold.Do(context.Background(), k, run); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Do(context.Background(), k, run); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("cold cache ran %d times, want 1", ran)
	}
	warm := workloads.NewStatsCache(b) // the restart: fresh L1, same store
	st, err := warm.Do(context.Background(), k, run)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("warm cache re-ran the experiment (%d runs)", ran)
	}
	if st.Makespan != 5 {
		t.Fatalf("warm stats = %+v", st)
	}
}
