package workloads

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
	"dcbench/internal/sim"
)

// The implementations the cluster data path replaced, kept as oracles: the
// clustering mappers that emitted one record per point (per point x
// centroid for fuzzy) for the combiner to fold, the Split/Join vector
// codecs, and SVM's regenerate-every-call shard. Bodies are the parent's,
// re-plumbed only to take the driver's shard and centroids arguments.

func refKMeansMapper(shard func(int) [][]float64, snap [][]float64) mapreduce.Mapper {
	return mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
		split, _ := strconv.Atoi(kv.Key)
		for _, p := range shard(split) {
			c, _ := analysis.NearestCentroid(p, snap)
			emit("c|"+strconv.Itoa(c), "1|"+refEncodeVec(p))
		}
	})
}

func refFuzzyKMeansMapper(shard func(int) [][]float64, snap [][]float64) mapreduce.Mapper {
	return mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
		split, _ := strconv.Atoi(kv.Key)
		pts := shard(split)
		_, memb, _ := analysis.FuzzyKMeansStep(pts, snap, fuzzinessFactor)
		for i, p := range pts {
			for c := 0; c < kmeansK; c++ {
				w := math.Pow(memb[i][c], fuzzinessFactor)
				if w == 0 {
					continue
				}
				wp := make([]float64, len(p))
				for j := range p {
					wp[j] = w * p[j]
				}
				emit("c|"+strconv.Itoa(c),
					strconv.FormatFloat(w, 'g', -1, 64)+"|"+refEncodeVec(wp))
			}
		}
	})
}

func refEncodeVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func refDecodeVec(s string) []float64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	v := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			panic(fmt.Sprintf("workloads: bad vector %q: %v", s, err))
		}
		v[i] = f
	}
	return v
}

func refSVMShard(seed uint64, split int) (x [][]float64, y []int) {
	c := datagen.NewCorpus(splitSeed(seed, split), 2000)
	for i := 0; i < svmDocsPerSplit; i++ {
		class := (split*svmDocsPerSplit + i) % 2
		page := c.HTMLPage(1, 15)
		// Mix in the class-bearing words.
		page += " " + c.LabeledSentence(class, 2, 40)
		x = append(x, analysis.HashFeatures(analysis.Tokenize(page), svmDim))
		y = append(y, 2*class-1)
	}
	return x, y
}

var clusteringOracles = []struct {
	clustering
	got, ref clusterMapper
}{
	{kmeans, kmeans.mapper, refKMeansMapper},
	{fuzzyKMeans, fuzzyKMeans.mapper, refFuzzyKMeansMapper},
}

// combined plays the engine's map side for one input record: run the
// mapper, stable-group the output by key and fold each group with the
// clustering combiner. It returns key -> post-combiner records.
func combined(m mapreduce.Mapper, rec mapreduce.KV) map[string][]string {
	var keys []string
	groups := map[string][]string{}
	m(rec, func(k, v string) {
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], v)
	})
	out := map[string][]string{}
	for _, k := range keys {
		vecSumReducer(k, groups[k], func(k2, v string) { out[k2] = append(out[k2], v) })
	}
	return out
}

// TestInMapperCombiningMatchesPerPointRecords: what leaves a map task after
// the combiner is byte-identical whether the mapper emits one record per
// point for the combiner to fold or folds them itself — per split, for the
// initial and for drifted centroids.
func TestInMapperCombiningMatchesPerPointRecords(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		shard := func(split int) [][]float64 { return clusterShard(seed, split) }
		rng := sim.NewRNG(seed)
		for trial := 0; trial < 4; trial++ {
			centroids := make([][]float64, kmeansK)
			for c, p := range shard(trial)[:kmeansK] {
				centroids[c] = append([]float64(nil), p...)
				if trial > 0 { // trial 0 keeps a centroid on a point: the fuzzy zero-distance case
					for j := range centroids[c] {
						centroids[c][j] += rng.NormFloat64()
					}
				}
			}
			for _, o := range clusteringOracles {
				for split := 0; split < 6; split++ {
					rec := mapreduce.KV{Key: strconv.Itoa(split)}
					got := combined(o.got(shard, centroids), rec)
					want := combined(o.ref(shard, centroids), rec)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d trial %d split %d:\n got %v\nwant %v", o.name, seed, trial, split, got, want)
					}
				}
			}
		}
	}
}

// TestInMapperCombiningMatchesPerPointRuns: whole clustering runs — five
// chained jobs, each fed the previous one's centroids — produce identical
// Stats (makespan, simulated disk and network bytes, core-seconds,
// quality) and bit-identical final centroids under either mapper, at the
// seeds and slave counts the benchmark drives.
func TestInMapperCombiningMatchesPerPointRuns(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, o := range clusteringOracles {
		for _, scale := range []float64{0.01, 0.05} {
			for _, slaves := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("%s/scale%v/%dslaves", o.name, scale, slaves), func(t *testing.T) {
					t.Parallel()
					ref := o.clustering
					ref.mapper = o.ref
					for _, seed := range seeds {
						got, _, gotC, err := o.run(NewEnv(slaves, scale, seed))
						if err != nil {
							t.Fatal(err)
						}
						want, _, wantC, err := ref.run(NewEnv(slaves, scale, seed))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotC, wantC) {
							t.Fatalf("seed %d:\n got %+v %v\nwant %+v %v", seed, got, gotC, want, wantC)
						}
					}
				})
			}
		}
	}
}

// TestClusteringJobCountersMatch compares one job's Counters and reducer
// output records under both mappers.
func TestClusteringJobCountersMatch(t *testing.T) {
	for _, o := range clusteringOracles {
		var res [2]*mapreduce.Result
		for i, mapper := range []clusterMapper{o.got, o.ref} {
			env := NewEnv(4, testScale, 5)
			simBytes := int64(150 * gb * env.Scale)
			shard := func(split int) [][]float64 { return clusterShard(env.Seed, split) }
			r, err := env.RT.Run(&mapreduce.Job{
				Input: newGenInput(simBytes, func(split int) []mapreduce.KV {
					return []mapreduce.KV{{Key: strconv.Itoa(split)}}
				}),
				InputFile:   env.DFS.AddFile(o.tag+"-input", simBytes),
				Mapper:      mapper(shard, shard(0)[:kmeansK]),
				Combiner:    vecSumReducer,
				Reducer:     vecSumReducer,
				NumReducers: env.reducers(),
				Cost:        o.cost,
			})
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if res[0].Counters != res[1].Counters || res[0].Makespan() != res[1].Makespan() ||
			!reflect.DeepEqual(res[0].Output, res[1].Output) {
			t.Errorf("%s: in-mapper %+v %v, per-point %+v %v", o.name,
				res[0].Counters, res[0].Makespan(), res[1].Counters, res[1].Makespan())
		}
	}
}

// bitsEqual compares float slices by bit pattern, NaN payloads aside.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func TestVecCodecsMatchReference(t *testing.T) {
	check := func(v []float64) bool {
		s := encodeVec(v)
		if s != refEncodeVec(v) {
			return false
		}
		got, want := decodeVec(s), refDecodeVec(s)
		return (got == nil) == (want == nil) && bitsEqual(got, want) && (len(v) == 0 || bitsEqual(got, v))
	}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		math.MaxFloat64, 1e21, 1e-7, 0.1, -123456.789, 1 << 53}
	for n := 0; n <= len(special); n++ {
		for _, v := range [][]float64{special[:n], special[len(special)-n:]} {
			if !check(v) {
				t.Fatalf("codec mismatch on %v: %q vs reference %q", v, encodeVec(v), refEncodeVec(v))
			}
		}
	}
	bits := func(raw []uint64) bool {
		v := make([]float64, len(raw))
		for i, b := range raw {
			v[i] = math.Float64frombits(b) // every exponent, denormals and NaNs included
		}
		return check(v)
	}
	if err := quick.Check(bits, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSVMShardMemoMatchesRegeneration: the memoized shard returns, on its
// first and on later calls, exactly what regenerating the split returns.
func TestSVMShardMemoMatchesRegeneration(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		shard := svmShards(seed, 9)
		for pass := 0; pass < 3; pass++ {
			for _, split := range []int{0, 3, 8} {
				x, y := shard(split)
				wantX, wantY := refSVMShard(seed, split)
				if !reflect.DeepEqual(y, wantY) || len(x) != len(wantX) {
					t.Fatalf("seed %d split %d pass %d: labels %v, want %v", seed, split, pass, y, wantY)
				}
				for i := range x {
					if !bitsEqual(x[i], wantX[i]) {
						t.Fatalf("seed %d split %d pass %d: document %d's features differ", seed, split, pass, i)
					}
				}
			}
		}
	}
}

// TestSVMMapOutputNeedsNoCombiner: the SVM job dropped its sumFloats
// combiner because a combiner would be the identity on its map output —
// every key once per task, every value already what sumFloats would print
// for it. Check exactly that, for zero and for non-trivial weights.
func TestSVMMapOutputNeedsNoCombiner(t *testing.T) {
	gradKeys := make([]string, svmDim)
	for j := range gradKeys {
		gradKeys[j] = "g|" + strconv.Itoa(j)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		shard := svmShards(seed, 6)
		w := make([]float64, svmDim)
		for pass := 0; pass < 3; pass++ {
			for split := 0; split < 6; split++ {
				seen := map[string]bool{}
				svmMapper(shard, gradKeys, w, 0, 0.001)(mapreduce.KV{Key: strconv.Itoa(split)}, func(k, v string) {
					if seen[k] {
						t.Fatalf("key %q emitted twice by one map task", k)
					}
					seen[k] = true
					sumFloats(k, []string{v}, func(k2, v2 string) {
						if k2 != k || v2 != v {
							t.Fatalf("combiner would rewrite (%q, %q) to (%q, %q)", k, v, k2, v2)
						}
					})
				})
				if len(seen) < 3 {
					t.Fatalf("split %d emitted only %d keys", split, len(seen))
				}
			}
			for j := range w {
				w[j] = rng.NormFloat64() * float64(pass+1)
			}
		}
	}
}

// TestMapperPanicFailsTheRunNotTheProcess: a panic inside a map function
// runs on a simulated process's goroutine; it must surface as the cluster
// run's error, not kill the server, and the failed run's other processes
// must not stay behind as parked goroutines.
func TestMapperPanicFailsTheRunNotTheProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	cache := NewStatsCache(nil)
	st, err := cache.Do(context.Background(), StatsKey{Workload: "broken", Slaves: 2, Scale: testScale, Seed: 1}, func(context.Context) (*Stats, error) {
		env := NewEnv(2, testScale, 1)
		_, err := env.RT.Run(&mapreduce.Job{
			Input:  &mapreduce.SliceInput{Splits: [][]mapreduce.KV{{{Key: "0", Value: "1,2,x"}}}},
			Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) { decodeVec(kv.Value) }),
		})
		return env.newStats("broken"), err
	})
	if err == nil || !strings.Contains(err.Error(), "bad vector") {
		t.Fatalf("Do = %v, %v; want the mapper's panic as an error", st, err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), base)
		}
	}
}
