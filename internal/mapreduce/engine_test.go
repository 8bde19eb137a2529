package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dcbench/internal/cluster"
	"dcbench/internal/dfs"
)

// testRuntime builds a small cluster+dfs+runtime for unit tests.
func testRuntime(nodes int) *Runtime {
	c := cluster.New(cluster.DefaultConfig(nodes), 42)
	d := dfs.New(c, 64<<20, 3, 42)
	cfg := DefaultRuntimeConfig()
	cfg.MapSlotsPerNode = 4
	cfg.ReduceSlotsPerNode = 2
	return NewRuntime(c, d, cfg)
}

// wordsInput produces text splits for word counting.
func wordsInput(splits int, text ...string) *SliceInput {
	in := &SliceInput{}
	for i := 0; i < splits; i++ {
		var recs []KV
		for j, line := range text {
			recs = append(recs, KV{fmt.Sprintf("s%d-l%d", i, j), line})
		}
		in.Splits = append(in.Splits, recs)
	}
	return in
}

var wordCountMapper = MapperFunc(func(kv KV, emit Emit) {
	for _, w := range strings.Fields(kv.Value) {
		emit(w, "1")
	}
})

var sumReducer = ReducerFunc(func(key string, values []string, emit Emit) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(v)
		total += n
	}
	emit(key, strconv.Itoa(total))
})

func TestWordCountCorrectness(t *testing.T) {
	rt := testRuntime(4)
	job := &Job{
		Name:        "wordcount",
		Input:       wordsInput(3, "a b a", "b c"),
		Mapper:      wordCountMapper,
		Combiner:    sumReducer,
		Reducer:     sumReducer,
		NumReducers: 2,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range res.Flat() {
		got[kv.Key] = kv.Value
	}
	want := map[string]string{"a": "6", "b": "6", "c": "3"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %s, want %s (all: %v)", k, got[k], v, got)
		}
	}
}

func TestMakespanPositiveAndOrdered(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{
		Name:   "j1",
		Input:  wordsInput(2, "x y"),
		Mapper: wordCountMapper,
	}
	r1, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan() <= 0 {
		t.Fatalf("makespan = %v, want > 0", r1.Makespan())
	}
	job2 := &Job{Name: "j2", Input: wordsInput(1, "z"), Mapper: wordCountMapper}
	r2, err := rt.Run(job2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start < r1.Finish {
		t.Fatalf("second job started at %v before first finished at %v", r2.Start, r1.Finish)
	}
}

func TestIdentityReducerDefault(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{
		Name:        "identity",
		Input:       &SliceInput{Splits: [][]KV{{{"k1", "v1"}, {"k2", "v2"}}}},
		Mapper:      MapperFunc(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 1,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Flat()
	if len(out) != 2 {
		t.Fatalf("output = %v, want 2 records", out)
	}
	if out[0].Key != "k1" || out[1].Key != "k2" {
		t.Fatalf("output not key-sorted: %v", out)
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	if err := quick.Check(func(key string, rr uint8) bool {
		r := int(rr%16) + 1
		p1 := hashPartition(key, r)
		p2 := hashPartition(key, r)
		return p1 == p2 && p1 >= 0 && p1 < r
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCustomPartitioner(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{
		Name:        "range",
		Input:       &SliceInput{Splits: [][]KV{{{"a", ""}, {"z", ""}, {"m", ""}}}},
		Mapper:      MapperFunc(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 2,
		Partition: func(key string, r int) int {
			if key < "n" {
				return 0
			}
			return 1
		},
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output[0]) != 2 || len(res.Output[1]) != 1 {
		t.Fatalf("partition sizes = %d,%d want 2,1", len(res.Output[0]), len(res.Output[1]))
	}
	// Total order: everything in partition 0 < everything in partition 1.
	if res.Output[0][1].Key >= res.Output[1][0].Key {
		t.Fatal("range partitioning violated total order")
	}
}

func TestCombinerReducesShuffleRecords(t *testing.T) {
	mk := func(withCombiner bool) *Result {
		rt := testRuntime(2)
		job := &Job{
			Name:        "comb",
			Input:       wordsInput(2, "w w w w w w w w"),
			Mapper:      wordCountMapper,
			Reducer:     sumReducer,
			NumReducers: 1,
		}
		if withCombiner {
			job.Combiner = sumReducer
		}
		res, err := rt.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := mk(true), mk(false)
	if with.Counters.MapOutputRecords >= without.Counters.MapOutputRecords {
		t.Fatalf("combiner did not shrink map output: %d vs %d",
			with.Counters.MapOutputRecords, without.Counters.MapOutputRecords)
	}
	if with.Flat()[0].Value != without.Flat()[0].Value {
		t.Fatal("combiner changed the result")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	// Property: the engine's answer equals a straightforward sequential
	// map+group+reduce, regardless of node/reducer counts.
	texts := []string{"the quick brown fox", "jumps over the lazy dog", "the end"}
	seq := map[string]int{}
	for _, line := range texts {
		for _, w := range strings.Fields(line) {
			seq[w]++
		}
	}
	for _, nodes := range []int{1, 3, 5} {
		for _, reducers := range []int{1, 2, 7} {
			rt := testRuntime(nodes)
			job := &Job{
				Name:        "wc",
				Input:       wordsInput(1, texts...),
				Mapper:      wordCountMapper,
				Reducer:     sumReducer,
				NumReducers: reducers,
			}
			res, err := rt.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, kv := range res.Flat() {
				n, _ := strconv.Atoi(kv.Value)
				got[kv.Key] = n
			}
			if len(got) != len(seq) {
				t.Fatalf("nodes=%d reducers=%d: %d keys, want %d", nodes, reducers, len(got), len(seq))
			}
			for k, v := range seq {
				if got[k] != v {
					t.Fatalf("nodes=%d reducers=%d: count[%s]=%d, want %d", nodes, reducers, k, got[k], v)
				}
			}
		}
	}
}

func TestSimulatedBytesScale(t *testing.T) {
	rt := testRuntime(2)
	// One split of tiny real records standing for 1 GB.
	in := &SliceInput{
		Splits:   [][]KV{{{"k", strings.Repeat("v", 100)}}},
		SimBytes: []int64{1 << 30},
	}
	job := &Job{
		Name:        "scaled",
		Input:       in,
		Mapper:      MapperFunc(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 1,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputSimBytes != 1<<30 {
		t.Fatalf("sim input bytes = %d, want 1 GiB", res.Counters.InputSimBytes)
	}
	// Identity pipeline: shuffle should carry roughly the input size.
	if res.Counters.ShuffleSimBytes < (1<<30)*9/10 {
		t.Fatalf("shuffle sim bytes = %d, want ~1 GiB", res.Counters.ShuffleSimBytes)
	}
}

func TestDiskActivityRecorded(t *testing.T) {
	rt := testRuntime(2)
	in := &SliceInput{
		Splits:   [][]KV{{{"k", "v"}}},
		SimBytes: []int64{10 << 20},
	}
	job := &Job{
		Name:        "io",
		Input:       in,
		Mapper:      MapperFunc(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 1,
		OutputFile:  "out",
	}
	if _, err := rt.Run(job); err != nil {
		t.Fatal(err)
	}
	if rt.C.TotalDiskWriteBytes() == 0 {
		t.Fatal("no disk writes recorded")
	}
	if _, ok := rt.D.Lookup("out.part-00000"); !ok {
		t.Fatal("output file not created in DFS")
	}
}

func TestLocalityPreferred(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(4), 42)
	d := dfs.New(c, 10<<20, 1, 42)
	f := d.AddFile("input", 8*(10<<20)) // 8 blocks round-robin over 4 nodes
	cfg := DefaultRuntimeConfig()
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1
	rt := NewRuntime(c, d, cfg)

	in := &SliceInput{}
	for i := 0; i < 8; i++ {
		in.Splits = append(in.Splits, []KV{{fmt.Sprintf("k%d", i), "v"}})
		in.SimBytes = append(in.SimBytes, 10<<20)
	}
	job := &Job{
		Name:        "local",
		Input:       in,
		InputFile:   f,
		Mapper:      MapperFunc(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 1,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.DataLocalMaps < 6 {
		t.Fatalf("data-local maps = %d of 8, want >= 6", res.Counters.DataLocalMaps)
	}
}

func TestMissingMapperRejected(t *testing.T) {
	rt := testRuntime(1)
	if _, err := rt.Run(&Job{Name: "bad", Input: wordsInput(1, "x")}); err == nil {
		t.Fatal("expected error for missing mapper")
	}
}

func TestOutputSortedWithinReducer(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{
		Name:        "sorted",
		Input:       wordsInput(2, "d c b a e g f"),
		Mapper:      wordCountMapper,
		Reducer:     sumReducer,
		NumReducers: 1,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0)
	for _, kv := range res.Output[0] {
		keys = append(keys, kv.Key)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("reducer output not sorted: %v", keys)
	}
}
