package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The kernels hashPartition and the grouping kernel replaced, kept verbatim
// as oracles.

func refHashPartition(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}

func refCombine(recs []KV, c Reducer) []KV {
	if len(recs) == 0 {
		return recs
	}
	sorted := make([]KV, len(recs))
	copy(sorted, recs)
	slices.SortStableFunc(sorted, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	var out []KV
	refGroupedReduce(sorted, c, func(k, v string) { out = append(out, KV{k, v}) })
	return out
}

func refGroupedReduce(sorted []KV, r Reducer, emit Emit) {
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, sorted[k].Value)
		}
		r(sorted[i].Key, values, emit)
		i = j
	}
}

// randomKeys draws n keys over a vocabulary of the given size, so groups
// of several values and singletons both occur.
func randomKeys(rng *rand.Rand, n, vocab int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k|" + strconv.Itoa(rng.Intn(vocab))
	}
	return keys
}

func TestHashPartitionMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := append(randomKeys(rng, 2000, 500), "", "a", "violations", "c|0", "héllo\x00\xff")
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	for _, r := range []int{1, 6, 48} {
		for _, k := range keys {
			if got, want := hashPartition(k, r), refHashPartition(k, r); got != want {
				t.Fatalf("HashPartition(%q, %d) = %d, fnv says %d", k, r, got, want)
			}
		}
	}
}

// concatReducer keeps every value and its position, so a combine that
// reordered equal keys' values or dropped one would show.
var concatReducer = Reducer(func(key string, values []string, emit Emit) {
	emit(key, strings.Join(values, "+"))
	if len(values) > 2 {
		emit(key, strconv.Itoa(len(values)))
	}
})

// kernelCombine combines recs through g, the grouping kernel a map task's
// combiner and a reduce task's reducer run on.
func kernelCombine(g *grouper, recs []KV, c Reducer) []KV {
	for _, kv := range recs {
		g.add(kv.Key, kv.Value)
	}
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	g.each(func(key string, values []string) { c(key, values, emit) })
	return out
}

func TestCombineMatchesCopyThenSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var g grouper // one kernel for every trial, as one Run shares it
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		recs := make([]KV, n)
		for i, k := range randomKeys(rng, n, 1+rng.Intn(20)) {
			recs[i] = KV{k, strconv.Itoa(i)}
		}
		want := refCombine(slices.Clone(recs), concatReducer)
		got := kernelCombine(&g, recs, concatReducer)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: combine = %v, reference %v", trial, got, want)
		}
	}
}

// refOutput is what Run must return for job over in: every split mapped
// and partitioned in emission order, each partition combined by refCombine,
// and each reducer's input the concatenation of its partitions in split
// order, stably sorted by key and reduced by refGroupedReduce.
func refOutput(job *Job, in *SliceInput) [][]KV {
	out := make([][]KV, job.NumReducers)
	shuffled := make([][]KV, job.NumReducers)
	for _, split := range in.Splits {
		parts := make([][]KV, job.NumReducers)
		for _, kv := range split {
			job.Mapper(kv, func(k, v string) {
				r := job.Partition(k, job.NumReducers)
				parts[r] = append(parts[r], KV{k, v})
			})
		}
		for r := range parts {
			if job.Combiner != nil {
				parts[r] = refCombine(parts[r], job.Combiner)
			}
			shuffled[r] = append(shuffled[r], parts[r]...)
		}
	}
	for r, recs := range shuffled {
		slices.SortStableFunc(recs, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
		refGroupedReduce(recs, job.Reducer, func(k, v string) { out[r] = append(out[r], KV{k, v}) })
	}
	return out
}

// TestReduceMatchesStableSortOracle runs several map tasks into reducers
// that block mid-shuffle and in their CPU charge, so their tasks
// interleave, and checks every reducer's output, in order, against the
// stable-sort oracle. concatReducer keeps each value's position, so a
// record grouped into another task's reduce, or reordered within its key,
// shows.
func TestReduceMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := &SliceInput{}
	for s := 0; s < 9; s++ {
		var recs []KV
		for i := 0; i < 12; i++ {
			recs = append(recs, KV{fmt.Sprintf("s%d-r%d", s, i), strings.Join(randomKeys(rng, 1+rng.Intn(10), 25), " ")})
		}
		in.Splits = append(in.Splits, recs)
	}
	positional := Mapper(func(kv KV, emit Emit) {
		for i, w := range strings.Fields(kv.Value) {
			emit(w, kv.Key+"."+strconv.Itoa(i))
		}
	})
	for _, combiner := range []Reducer{nil, concatReducer} {
		job := &Job{
			Name:        "oracle",
			Input:       in,
			Mapper:      positional,
			Combiner:    combiner,
			Reducer:     concatReducer,
			NumReducers: 7,
			Partition:   hashPartition,
			Cost:        CostModel{MapCPUPerByte: 1e-6, ReduceCPUPerByte: 1e-6, OutputRatio: 50},
		}
		res, err := testRuntime(3).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		want := refOutput(job, in)
		for r := range want {
			if got := res.Output[r]; len(got) != len(want[r]) || (len(got) > 0 && !reflect.DeepEqual(got, want[r])) {
				t.Fatalf("combiner=%v reducer %d:\n got  %v\n want %v", combiner != nil, r, got, want[r])
			}
		}
	}
}

var benchSink int

func BenchmarkHashPartition(b *testing.B) {
	keys := randomKeys(rand.New(rand.NewSource(3)), 1024, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += hashPartition(keys[i%len(keys)], 48)
	}
}

// BenchmarkCombine combines one map task's partition the size SVM produces
// (a few hundred records, mostly distinct keys) under a summing combiner.
func BenchmarkCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	src := make([]KV, 300)
	for i, k := range randomKeys(rng, len(src), 256) {
		src[i] = KV{k, "1"}
	}
	var g grouper
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(kernelCombine(&g, src, sumReducer))
	}
}
