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
	"dcbench/internal/sim"
)

// TestSkewedKeysSingleHotReducer: one key holding most records must not
// break grouping or counting (the classic reducer-skew case).
func TestSkewedKeysSingleHotReducer(t *testing.T) {
	rt := testRuntime(4)
	var recs []KV
	for i := 0; i < 500; i++ {
		recs = append(recs, KV{"hot", "1"})
	}
	recs = append(recs, KV{"cold", "1"})
	job := &Job{
		Name:        "skew",
		Input:       &SliceInput{Splits: [][]KV{recs}},
		Mapper:      Mapper(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		Reducer:     sumReducer,
		NumReducers: 8,
	}
	res, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range res.Flat() {
		got[kv.Key] = kv.Value
	}
	if got["hot"] != "500" || got["cold"] != "1" {
		t.Fatalf("skewed counts = %v", got)
	}
}

// TestEmptySplitsTolerated: splits that yield no records must not wedge the
// barrier logic.
func TestEmptySplitsTolerated(t *testing.T) {
	rt := testRuntime(3)
	in := &SliceInput{
		Splits:   [][]KV{nil, {{"k", "v"}}, nil, nil},
		SimBytes: []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20},
	}
	res, err := rt.Run(&Job{
		Name:        "empties",
		Input:       in,
		Mapper:      Mapper(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flat()) != 1 {
		t.Fatalf("output = %v", res.Flat())
	}
	if res.Counters.MapTasks != 4 {
		t.Fatalf("map tasks = %d, want 4", res.Counters.MapTasks)
	}
}

// TestMoreReducersThanKeys: surplus reducers produce empty partitions, not
// errors.
func TestMoreReducersThanKeys(t *testing.T) {
	rt := testRuntime(2)
	res, err := rt.Run(&Job{
		Name:        "surplus",
		Input:       &SliceInput{Splits: [][]KV{{{"a", "1"}, {"b", "2"}}}},
		Mapper:      Mapper(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
		NumReducers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 16 {
		t.Fatalf("partitions = %d", len(res.Output))
	}
	if n := len(res.Flat()); n != 2 {
		t.Fatalf("records = %d, want 2", n)
	}
}

// TestMapperExplosion: a mapper emitting many records per input must be
// combined down correctly.
func TestMapperExplosion(t *testing.T) {
	rt := testRuntime(2)
	res, err := rt.Run(&Job{
		Name:  "explode",
		Input: &SliceInput{Splits: [][]KV{{{"seed", "64"}}}},
		Mapper: Mapper(func(kv KV, emit Emit) {
			n, _ := strconv.Atoi(kv.Value)
			for i := 0; i < n; i++ {
				emit(fmt.Sprintf("k%d", i%4), "1")
			}
		}),
		Combiner:    sumReducer,
		Reducer:     sumReducer,
		NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, kv := range res.Flat() {
		n, _ := strconv.Atoi(kv.Value)
		total += n
	}
	if total != 64 {
		t.Fatalf("total = %d, want 64", total)
	}
}

// TestChainedJobsAccumulateTime: job N+1 starts no earlier than job N ends
// and the DFS carries state across jobs.
func TestChainedJobsAccumulateTime(t *testing.T) {
	rt := testRuntime(3)
	var prevFinish float64
	for i := 0; i < 4; i++ {
		res, err := rt.Run(&Job{
			Name:        fmt.Sprintf("chain-%d", i),
			Input:       wordsInput(2, "a b c"),
			Mapper:      wordCountMapper,
			Reducer:     sumReducer,
			NumReducers: 2,
			OutputFile:  fmt.Sprintf("out-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Start < prevFinish {
			t.Fatalf("job %d started at %v before %v", i, res.Start, prevFinish)
		}
		prevFinish = res.Finish
		if _, ok := rt.D.Lookup(fmt.Sprintf("out-%d.part-00000", i)); !ok {
			t.Fatalf("job %d left no output file", i)
		}
	}
}

// TestDistributedEqualsSequentialProperty: for random record sets, the
// engine's word counts equal a direct sequential fold, across random node
// and reducer counts.
func TestDistributedEqualsSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		nodes := 1 + rng.Intn(5)
		reducers := 1 + rng.Intn(9)
		splits := 1 + rng.Intn(4)
		vocab := []string{"ab", "cd", "ef", "gh", "ij"}
		in := &SliceInput{}
		seq := map[string]int{}
		for s := 0; s < splits; s++ {
			var recs []KV
			for r := 0; r < rng.Intn(30); r++ {
				var words []string
				for w := 0; w < 1+rng.Intn(8); w++ {
					words = append(words, vocab[rng.Intn(len(vocab))])
				}
				for _, w := range words {
					seq[w]++
				}
				recs = append(recs, KV{fmt.Sprintf("r%d-%d", s, r), strings.Join(words, " ")})
			}
			in.Splits = append(in.Splits, recs)
		}
		rt := testRuntime(nodes)
		res, err := rt.Run(&Job{
			Name:        "prop",
			Input:       in,
			Mapper:      wordCountMapper,
			Combiner:    sumReducer,
			Reducer:     sumReducer,
			NumReducers: reducers,
		})
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, kv := range res.Flat() {
			n, _ := strconv.Atoi(kv.Value)
			got[kv.Key] = n
		}
		if len(got) != len(seq) {
			return false
		}
		for k, v := range seq {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicAcrossRuns: the same job twice on fresh clusters gives
// bit-identical makespans and counters.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (*Result, *Runtime) {
		rt := testRuntime(4)
		res, err := rt.Run(&Job{
			Name:        "det",
			Input:       wordsInput(3, "x y z", "x x"),
			Mapper:      wordCountMapper,
			Combiner:    sumReducer,
			Reducer:     sumReducer,
			NumReducers: 4,
			OutputFile:  "det-out",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rt
	}
	a, art := run()
	b, brt := run()
	if a.Makespan() != b.Makespan() {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan(), b.Makespan())
	}
	if art.C.TotalDiskWriteOps() != brt.C.TotalDiskWriteOps() {
		t.Fatal("disk ops differ")
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
}

// TestSlotConfigChangesTimingNotOutput: fewer slots slow the job but never
// change the answer.
func TestSlotConfigChangesTimingNotOutput(t *testing.T) {
	build := func(mapSlots int) (*Result, error) {
		c := cluster.New(cluster.DefaultConfig(2), 42)
		d := dfs.New(c, 64<<20, 2, 42)
		cfg := DefaultRuntimeConfig()
		cfg.MapSlotsPerNode = mapSlots
		cfg.ReduceSlotsPerNode = 1
		rt := NewRuntime(c, d, cfg)
		in := &SliceInput{}
		for s := 0; s < 8; s++ {
			in.Splits = append(in.Splits, []KV{{fmt.Sprintf("k%d", s), "v v v"}})
			in.SimBytes = append(in.SimBytes, 64<<20)
		}
		return rt.Run(&Job{
			Name:        "slots",
			Input:       in,
			Mapper:      wordCountMapper,
			Reducer:     sumReducer,
			NumReducers: 2,
		})
	}
	narrow, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := build(8)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Makespan() <= wide.Makespan() {
		t.Fatalf("1 slot (%v) should be slower than 8 slots (%v)",
			narrow.Makespan(), wide.Makespan())
	}
	na, wa := narrow.Flat(), wide.Flat()
	if len(na) != len(wa) {
		t.Fatal("outputs differ in size")
	}
	sort.Slice(na, func(i, j int) bool { return na[i].Key < na[j].Key })
	sort.Slice(wa, func(i, j int) bool { return wa[i].Key < wa[j].Key })
	for i := range na {
		if na[i] != wa[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, na[i], wa[i])
		}
	}
}

// TestShuffleBytesScaleWithOutputRatio: the OutputRatio override governs
// simulated shuffle volume.
func TestShuffleBytesScaleWithOutputRatio(t *testing.T) {
	run := func(ratio float64) int64 {
		rt := testRuntime(2)
		in := &SliceInput{
			Splits:   [][]KV{{{"k", "vvvv"}}},
			SimBytes: []int64{100 << 20},
		}
		res, err := rt.Run(&Job{
			Name:        "ratio",
			Input:       in,
			Mapper:      Mapper(func(kv KV, emit Emit) { emit(kv.Key, kv.Value) }),
			NumReducers: 1,
			Cost:        CostModel{OutputRatio: ratio},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.ShuffleSimBytes
	}
	small, big := run(0.01), run(2.0)
	if small >= big {
		t.Fatalf("shuffle bytes: ratio 0.01 -> %d, ratio 2 -> %d", small, big)
	}
	if big < 150<<20 {
		t.Fatalf("ratio 2 shuffle = %d, want ~200 MB", big)
	}
}
