package store_test

import (
	"bytes"
	"testing"

	"dcbench/internal/store"
	"dcbench/internal/uarch"
)

// allAddrs flattens a store's shard address lists.
func allAddrs(t *testing.T, s *store.Store) []string {
	t.Helper()
	var out []string
	for i := 0; i < s.ShardCount(); i++ {
		addrs, err := s.ShardAddrs(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, addrs...)
	}
	return out
}

// digestsEqual compares two stores' full digest vectors.
func digestsEqual(a, b []store.ShardDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardDigestsReflectContents(t *testing.T) {
	s1, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if !digestsEqual(s1.ShardDigests(), s2.ShardDigests()) {
		t.Fatal("two empty stores disagree on digests")
	}
	for i := 0; i < 8; i++ {
		k := testKey("w", uint64(i))
		if err := s1.Put(k, &uarch.Counters{Cycles: int64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if digestsEqual(s1.ShardDigests(), s2.ShardDigests()) {
		t.Fatal("a full and an empty store agree on digests")
	}
	if got := len(allAddrs(t, s1)); got != 8 {
		t.Fatalf("shard addrs list %d records, want 8", got)
	}
	var count, b int64
	for _, d := range s1.ShardDigests() {
		count += d.Count
		b += d.Bytes
	}
	if count != 8 || b != s1.Bytes() {
		t.Fatalf("digest totals = %d records / %d bytes, want 8 / %d", count, b, s1.Bytes())
	}
	// Same puts in a different order converge to the same digests: the
	// digest is over the sorted address set, not insertion history.
	for i := 7; i >= 0; i-- {
		k := testKey("w", uint64(i))
		if err := s2.Put(k, &uarch.Counters{Cycles: int64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !digestsEqual(s1.ShardDigests(), s2.ShardDigests()) {
		t.Fatal("stores with identical contents disagree on digests")
	}
}

func TestGetRecordAdoptRoundTrip(t *testing.T) {
	src, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	k := testKey("sort", 42)
	want := &uarch.Counters{Cycles: 99, Instructions: 1234}
	if err := src.Put(k, want); err != nil {
		t.Fatal(err)
	}
	addrs := allAddrs(t, src)
	if len(addrs) != 1 {
		t.Fatalf("src holds %d records, want 1", len(addrs))
	}
	data, ok, err := src.GetRecord(addrs[0])
	if err != nil || !ok {
		t.Fatalf("GetRecord = ok=%v err=%v", ok, err)
	}
	// The address the peer plane ranks by is the address the store files
	// the record under.
	if a, err := store.Counters.Addr(k); err != nil || a != addrs[0] {
		t.Fatalf("Counters.Addr = %q/%v, want %q", a, err, addrs[0])
	}
	if _, ok, err := src.GetRecord("0123456789abcdef"); ok || err != nil {
		t.Fatalf("GetRecord of absent addr = ok=%v err=%v, want miss", ok, err)
	}
	if _, _, err := src.GetRecord("nope"); err == nil {
		t.Fatal("GetRecord accepted a malformed address")
	}

	adopted, err := dst.AdoptRecord(data)
	if err != nil || !adopted {
		t.Fatalf("AdoptRecord = %v, %v; want adopted", adopted, err)
	}
	got, ok, err := dst.Get(k)
	if err != nil || !ok || *got != *want {
		t.Fatalf("Get after adopt = %+v ok=%v err=%v, want %+v", got, ok, err, want)
	}
	// Byte-identical on disk: the adopter serves the exact bytes it took.
	data2, ok, err := dst.GetRecord(addrs[0])
	if err != nil || !ok || !bytes.Equal(data, data2) {
		t.Fatal("adopted record is not byte-identical to the source's")
	}
	if !digestsEqual(src.ShardDigests(), dst.ShardDigests()) {
		t.Fatal("digests diverge after adopting the only record")
	}
	// Idempotent: a repeated push is a no-op, not a double count.
	if again, err := dst.AdoptRecord(data); err != nil || again {
		t.Fatalf("second AdoptRecord = %v, %v; want no-op", again, err)
	}
	st := dst.Stats()
	if st.Adopted != 1 || st.Writes != 0 {
		t.Fatalf("Stats after adopt = adopted %d writes %d, want 1 and 0", st.Adopted, st.Writes)
	}

	// A mangled record is refused and counted, never stored.
	bad := bytes.Replace(data, []byte(`"sum"`), []byte(`"sim"`), 1)
	if _, err := dst.AdoptRecord(bad); err == nil {
		t.Fatal("AdoptRecord accepted a mangled record")
	}
	if dst.Stats().Corrupt == 0 {
		t.Fatal("mangled adopt not counted as corrupt")
	}
}

// TestAdoptUnderBudgets proves adopted records obey the same LRU byte
// budget as local puts: replication cannot inflate a bounded store.
func TestAdoptUnderBudgets(t *testing.T) {
	src, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := store.OpenWith(t.TempDir(), store.OpenOptions{MaxBytes: 2 * recordSize(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for i := 0; i < 6; i++ {
		if err := src.Put(sameSizeKey(i), sameSizeValue); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range allAddrs(t, src) {
		data, _, _ := src.GetRecord(addr)
		if _, err := dst.AdoptRecord(data); err != nil {
			t.Fatal(err)
		}
	}
	if n := dst.Len(); n > 2 {
		t.Fatalf("budgeted store holds %d records after adopts, want <= 2", n)
	}
	if dst.Stats().Evictions == 0 {
		t.Fatal("no evictions counted for over-budget adopts")
	}
}
