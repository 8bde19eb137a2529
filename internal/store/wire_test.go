package store

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"dcbench/internal/memo"
	"dcbench/internal/memtrace"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// kindCase is one record kind with a sample key, a key that differs from
// it in one field, and a value: the tables below run every assertion over
// both kinds.
type kindCase[K comparable, T any] struct {
	kind      Kind[K, T]
	key, near K
	value     *T
	other     string // the other kind's name
	// cache is the kind's memo layer over a backend: the sweep engine's
	// memo table for counters, the StatsCache for cluster.
	cache func(Backend) func(context.Context, K, func(context.Context) (*T, error)) (*T, error)
}

var (
	countersCase = kindCase[sweep.Key, uarch.Counters]{
		kind: Counters,
		key: sweep.Key{
			Name:      "Sort",
			Profile:   memtrace.Profile{Seed: 42, MaxInstrs: 900_000, CodeKB: 128, FPUShare: 0.25},
			ConfigFP:  0xabcdef0123456789,
			MaxInstrs: 900_000,
		},
		near: sweep.Key{
			Name:      "Sort",
			Profile:   memtrace.Profile{Seed: 43, MaxInstrs: 900_000, CodeKB: 128, FPUShare: 0.25},
			ConfigFP:  0xabcdef0123456789,
			MaxInstrs: 900_000,
		},
		value: &uarch.Counters{Cycles: 123456, Instructions: 654321, L2Misses: 42},
		other: KindCluster,
		cache: func(b Backend) func(context.Context, sweep.Key, func(context.Context) (*uarch.Counters, error)) (*uarch.Counters, error) {
			m := memo.New[sweep.Key, *uarch.Counters]()
			return func(ctx context.Context, k sweep.Key, run func(context.Context) (*uarch.Counters, error)) (*uarch.Counters, error) {
				return m.DoShared(ctx, k, func(ctx context.Context) (*uarch.Counters, error) {
					if c, ok := b.Load(ctx, k); ok {
						return c, nil
					}
					c, err := run(ctx)
					if err == nil {
						b.Store(ctx, k, c)
					}
					return c, err
				})
			}
		},
	}
	clusterCase = kindCase[workloads.StatsKey, workloads.Stats]{
		kind: Cluster,
		key:  workloads.StatsKey{Workload: "Sort", Slaves: 8, Scale: 0.05, Seed: 42},
		near: workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: 0.05, Seed: 42},
		value: &workloads.Stats{
			Workload: "Sort", Slaves: 8, Makespan: 321.25, Jobs: 3,
			InputSimBytes: 1 << 30, DiskWriteOps: 777, DiskWriteBytes: 1 << 20,
			NetBytes: 555, CoreSeconds: 12.5, Quality: map[string]float64{"sorted": 1},
		},
		other: KindCounters,
		cache: func(b Backend) func(context.Context, workloads.StatsKey, func(context.Context) (*workloads.Stats, error)) (*workloads.Stats, error) {
			return workloads.NewStatsCache(b).Do
		},
	}
)

// TestWireRoundTrip: the dispatch wire format carries key and value
// bit-exactly (the cluster value's Quality map included), and the decoded
// bytes are the same record a store Get would have verified.
func TestWireRoundTrip(t *testing.T) {
	t.Run(KindCounters, countersCase.wireRoundTrip)
	t.Run(KindCluster, clusterCase.wireRoundTrip)
}

func (c kindCase[K, T]) wireRoundTrip(t *testing.T) {
	data, err := c.kind.Encode(c.key, c.value)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := c.kind.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != c.key {
		t.Fatalf("key round trip: got %+v, want %+v", gotKey, c.key)
	}
	if !reflect.DeepEqual(got, c.value) {
		t.Fatalf("value round trip: got %+v, want %+v", got, c.value)
	}
}

// TestWireRejectsMutation: the checksum that protects records on disk
// protects them on the wire — any single flipped byte decodes to an error,
// never to silently wrong counters.
func TestWireRejectsMutation(t *testing.T) {
	k := sweep.Key{Name: "Grep", Profile: memtrace.Profile{Seed: 7}, ConfigFP: 1, MaxInstrs: 100}
	data, err := Counters.Encode(k, &uarch.Counters{Cycles: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x20
		if string(mut) == string(data) {
			continue
		}
		gotKey, c, err := Counters.Decode(mut)
		if err == nil && gotKey == k && c != nil && *c == (uarch.Counters{Cycles: 99}) {
			continue // decoded to the identical result: mutation was JSON-insignificant whitespace-level noise, still safe
		}
		if err == nil {
			t.Fatalf("byte %d mutated: decode returned key=%+v counters=%+v without error", i, gotKey, c)
		}
	}
}

// TestWireRejectsWrongKind: a record of either kind must not decode as
// the other, even though it passes the checksum.
func TestWireRejectsWrongKind(t *testing.T) {
	crec, err := Counters.Encode(countersCase.key, countersCase.value)
	if err != nil {
		t.Fatal(err)
	}
	srec, err := Cluster.Encode(clusterCase.key, clusterCase.value)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Counters.Decode(srec); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("cluster record decoded as counters: err=%v", err)
	}
	if _, _, err := Cluster.Decode(crec); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("counters record decoded as cluster stats: err=%v", err)
	}
}

// TestClusterStatsRoundTrip: each kind's records (cluster stats and
// counters) survive a reopen and answer only their own kind and key.
func TestClusterStatsRoundTrip(t *testing.T) {
	t.Run(KindCounters, countersCase.storeRoundTrip)
	t.Run(KindCluster, clusterCase.storeRoundTrip)
}

// TestStatsBackendRoundTrip: for each kind, the backend adapter with the
// kind's memo layer over it runs a result once and then serves it from
// disk: a fresh cache over a warm store (the restart) recomputes nothing.
func TestStatsBackendRoundTrip(t *testing.T) {
	t.Run(KindCounters, countersCase.backendRoundTrip)
	t.Run(KindCluster, clusterCase.backendRoundTrip)
}

func (c kindCase[K, T]) storeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.kind.get(s, c.key); err != nil || ok {
		t.Fatalf("empty get = ok=%v err=%v", ok, err)
	}
	if err := c.kind.put(s, c.key, c.value); err != nil {
		t.Fatal(err)
	}
	// The kinds share the store but never each other's namespace: the same
	// canonical key bytes under the other kind's name miss.
	key, err := c.kind.key(c.key)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.get(c.other, key, new(json.RawMessage)); ok {
		t.Fatalf("a %s record answered a %s get", c.kind.Name, c.other)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := c.kind.get(s2, c.key)
	if err != nil || !ok {
		t.Fatalf("get after reopen: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, c.value) {
		t.Fatalf("get = %+v, want %+v", got, c.value)
	}
	if _, ok, _ := c.kind.get(s2, c.near); ok {
		t.Fatalf("get of %+v hit the record of %+v", c.near, c.key)
	}
}

func (c kindCase[K, T]) backendRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.Backend(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ran := 0
	run := func(context.Context) (*T, error) {
		ran++
		return c.value, nil
	}
	cold := c.cache(b)
	for i := 0; i < 2; i++ {
		if _, err := cold(context.Background(), c.key, run); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 1 {
		t.Fatalf("cold cache ran %d times, want 1", ran)
	}
	warm := c.cache(b) // the restart: fresh memo, same store
	v, err := warm(context.Background(), c.key, run)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("warm cache recomputed (%d runs)", ran)
	}
	if !reflect.DeepEqual(v, c.value) {
		t.Fatalf("warm value = %+v, want %+v", v, c.value)
	}
}

// TestWireFormatGolden pins the exact bytes of both wire codecs — field
// names, field order, the schema tag and the checksum — to the format
// PR 4-era nodes read and write. A diff here is a wire break: old
// front-ends and workers would stop interoperating with new ones during
// a rollout, so change it deliberately (with a schema bump and migration
// story), never as a side effect.
func TestWireFormatGolden(t *testing.T) {
	k := sweep.Key{
		Name:      "Sort",
		Profile:   memtrace.Profile{Seed: 42, MaxInstrs: 40000, CodeKB: 128, FPUShare: 0.25},
		ConfigFP:  0xabcdef0123456789,
		MaxInstrs: 40000,
	}
	c := &uarch.Counters{Cycles: 123456, Instructions: 654321, L2Misses: 42}
	data, err := Counters.Encode(k, c)
	if err != nil {
		t.Fatal(err)
	}
	wantCounters := `{"schema":2,"kind":"counters","key":{"name":"Sort","profile":{"Seed":42,"MaxInstrs":40000,"CodeKB":128,"HotCodeKB":0,"KernelKB":0,"BlockLen":0,"ColdJumpP":0,"FrameworkEvery":0,"FrameworkInstrs":0,"FrameworkJump":0,"GCEvery":0,"GCInstrs":0,"HeapMB":0,"ALUPerMem":0,"FPUShare":0.25,"NSrc2P":0,"NSrc3P":0,"ChainProb":0},"config_fp":12379813738877118345,"max_instrs":40000},"payload":{"Cycles":123456,"Instructions":654321,"KernelInstructions":0,"Branches":0,"BranchMispredicts":0,"L1IAccesses":0,"L1IMisses":0,"L1DAccesses":0,"L1DMisses":0,"L2Accesses":0,"L2Misses":42,"L3Accesses":0,"L3Misses":0,"ITLBWalks":0,"DTLBWalks":0,"FetchStall":0,"RATStall":0,"LoadBufStall":0,"StoreBufStall":0,"RSStall":0,"ROBStall":0},"sum":"004fa50e7727baac"}` + "\n"
	if string(data) != wantCounters {
		t.Errorf("counters wire format drifted from the PR 4 bytes\ngot:  %s\nwant: %s", data, wantCounters)
	}

	sk := workloads.StatsKey{Workload: "Sort", Slaves: 4, Scale: 0.05, Seed: 42}
	st := &workloads.Stats{Workload: "Sort", Slaves: 4, Makespan: 123.5, Jobs: 3, DiskWriteOps: 777}
	sdata, err := Cluster.Encode(sk, st)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := `{"schema":2,"kind":"cluster","key":{"workload":"Sort","slaves":4,"scale":0.05,"seed":42},"payload":{"Workload":"Sort","Slaves":4,"Makespan":123.5,"Jobs":3,"InputSimBytes":0,"DiskWriteOps":777,"DiskWriteBytes":0,"NetBytes":0,"CoreSeconds":0,"Quality":null},"sum":"a18d112e7286306f"}` + "\n"
	if string(sdata) != wantStats {
		t.Errorf("cluster wire format drifted\ngot:  %s\nwant: %s", sdata, wantStats)
	}
}
