package mapreduce

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The kernels HashPartition and combine replaced, kept verbatim as oracles.

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
		r.Reduce(sorted[i].Key, values, emit)
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
			if got, want := HashPartition(k, r), refHashPartition(k, r); got != want {
				t.Fatalf("HashPartition(%q, %d) = %d, fnv says %d", k, r, got, want)
			}
		}
	}
}

// concatReducer keeps every value and its position, so a combine that
// reordered equal keys' values or dropped one would show.
var concatReducer = ReducerFunc(func(key string, values []string, emit Emit) {
	emit(key, strings.Join(values, "+"))
	if len(values) > 2 {
		emit(key, strconv.Itoa(len(values)))
	}
})

func TestCombineMatchesCopyThenSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		recs := make([]KV, n)
		for i, k := range randomKeys(rng, n, 1+rng.Intn(20)) {
			recs[i] = KV{k, strconv.Itoa(i)}
		}
		want := refCombine(slices.Clone(recs), concatReducer)
		got := combine(recs, concatReducer)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: combine = %v, reference %v", trial, got, want)
		}
	}
}

var benchSink int

func BenchmarkHashPartition(b *testing.B) {
	keys := randomKeys(rand.New(rand.NewSource(3)), 1024, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += HashPartition(keys[i%len(keys)], 48)
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
	recs := make([]KV, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(recs, src)
		benchSink += len(combine(recs, sumReducer))
	}
}
