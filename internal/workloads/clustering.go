package workloads

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
)

const (
	kmeansK         = 4
	kmeansDim       = 8
	kmeansIters     = 5
	pointsPerSplit  = 40
	fuzzinessFactor = 2.0
)

// clusterShard deterministically generates one split's points.
func clusterShard(seed uint64, split int) [][]float64 {
	pts, _ := datagen.Vectors(splitSeed(seed, split), pointsPerSplit, kmeansDim, kmeansK)
	return pts
}

// clusterMapper builds one iteration's map function over the broadcast
// centroids; shard returns a split's points.
type clusterMapper func(shard func(split int) [][]float64, centroids [][]float64) mapreduce.Mapper

// clustering is what differs between K-means and Fuzzy K-means.
type clustering struct {
	name, tag string // workload name; prefix of its DFS file and job names
	cost      mapreduce.CostModel
	mapper    clusterMapper
	// step is one iteration of the serial algorithm, for verification.
	step func(pts, centroids [][]float64) [][]float64
}

// run iterates the distributed algorithm kmeansIters times, one MapReduce
// job per iteration, then verifies the centroids against the serial
// algorithm on identical data. It returns the finished stats, all points
// and the final centroids.
func (a clustering) run(env *Env) (st *Stats, pts, centroids [][]float64, err error) {
	st = env.newStats(a.name)
	simBytes := int64(150 * gb * env.Scale)
	file := env.DFS.AddFile(a.tag+"-input", simBytes)
	input := newGenInput(simBytes, func(split int) []mapreduce.KV {
		return []mapreduce.KV{{Key: strconv.Itoa(split), Value: ""}}
	})
	// A split's points depend on (seed, split) only: generate them once
	// for all iterations and the serial verification.
	shards := make([][][]float64, input.NumSplits())
	shard := func(split int) [][]float64 {
		if shards[split] == nil {
			shards[split] = clusterShard(env.Seed, split)
		}
		return shards[split]
	}
	// Initial centroids: the first k points of split 0. Updates replace
	// whole vectors, so the points themselves are shared, not copied.
	centroids = slices.Clone(shard(0)[:kmeansK])
	var results []*mapreduce.Result
	for iter := 1; iter <= kmeansIters; iter++ {
		job := &mapreduce.Job{
			Name:  fmt.Sprintf("%s-iter-%d", a.tag, iter),
			Input: input, InputFile: file,
			Mapper:      a.mapper(shard, centroids),
			Combiner:    vecSumReducer,
			Reducer:     vecSumReducer,
			NumReducers: env.reducers(),
			Cost:        a.cost,
		}
		res, err := env.RT.Run(job)
		if err != nil {
			return nil, nil, nil, err
		}
		results = append(results, res)
		for _, kv := range res.Flat() {
			c, _ := strconv.Atoi(strings.TrimPrefix(kv.Key, "c|"))
			n, sum := decodeWeightedVec(kv.Value)
			for j := range sum {
				sum[j] /= n
			}
			centroids[c] = sum
		}
	}
	for s := range shards {
		pts = append(pts, shard(s)...)
	}
	serial := shard(0)[:kmeansK]
	for it := 0; it < kmeansIters; it++ {
		serial = a.step(pts, serial)
	}
	st.Quality["serial_divergence"] = maxCentroidDiff(centroids, serial)
	return env.finishStats(st, results...), pts, centroids, nil
}

// centroidSums is a map task's own partial result (in-mapper combining):
// per centroid, the weight and the weighted vector sum of the task's
// points, accumulated in point order — the additions vecSumReducer would
// make as combiner over one record per point.
type centroidSums struct {
	n    [kmeansK]float64
	sums [kmeansK][kmeansDim]float64
}

// emit writes one "c|k" -> "n|sum" record per centroid that received weight.
func (s *centroidSums) emit(emit mapreduce.Emit) {
	for c, n := range s.n {
		if n != 0 {
			emit("c|"+strconv.Itoa(c), strconv.FormatFloat(n, 'g', -1, 64)+"|"+encodeVec(s.sums[c][:]))
		}
	}
}

// kmeansMapper adds each of its shard's points to its nearest centroid.
func kmeansMapper(shard func(int) [][]float64, centroids [][]float64) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(kv mapreduce.KV, emit mapreduce.Emit) {
		split, _ := strconv.Atoi(kv.Key)
		var s centroidSums
		for _, p := range shard(split) {
			c, _ := analysis.NearestCentroid(p, centroids)
			s.n[c]++
			for j, v := range p {
				s.sums[c][j] += v
			}
		}
		s.emit(emit)
	})
}

// fuzzyKMeansMapper adds point i to every centroid c with weight u_ic^m.
func fuzzyKMeansMapper(shard func(int) [][]float64, centroids [][]float64) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(kv mapreduce.KV, emit mapreduce.Emit) {
		split, _ := strconv.Atoi(kv.Key)
		pts := shard(split)
		_, memb, _ := analysis.FuzzyKMeansStep(pts, centroids, fuzzinessFactor)
		var s centroidSums
		for i, p := range pts {
			for c := range s.n {
				w := math.Pow(memb[i][c], fuzzinessFactor)
				if w == 0 {
					continue
				}
				s.n[c] += w
				for j, v := range p {
					// The conversion rounds the product before the add: no
					// fused multiply-add, which would change the last bit.
					s.sums[c][j] += float64(w * v)
				}
			}
		}
		s.emit(emit)
	})
}

// kmeansWorkload is Mahout-style distributed K-means: each iteration is a
// MapReduce job whose map tasks assign their shard's points to the nearest
// broadcast centroid and emit one partial sum per centroid, and whose
// reduce side computes the new centroids. The driver verifies that the
// distributed iteration matches the serial Lloyd step bit-for-bit (up to
// floating-point summation order).
func kmeansWorkload() *Workload {
	return &Workload{
		Name:      "K-means",
		InputGB:   150,
		Domains:   []string{"search engine", "social network", "electronic commerce"},
		Scenarios: []string{"Image processing", "High-resolution landform classification"},
		Run: func(env *Env) (*Stats, error) {
			st, pts, centroids, err := kmeans.run(env)
			if err != nil {
				return nil, err
			}
			_, _, st.Quality["objective"] = analysis.KMeansStep(pts, centroids)
			return st, nil
		},
	}
}

var kmeans = clustering{
	name: "K-means", tag: "kmeans",
	cost:   mapreduce.CostModel{MapCPUPerByte: 2.3e-9, ReduceCPUPerByte: 0.3e-9, OutputRatio: 0.001},
	mapper: kmeansMapper,
	step: func(pts, centroids [][]float64) [][]float64 {
		next, _, _ := analysis.KMeansStep(pts, centroids)
		return next
	},
}

// fuzzyKMeansWorkload distributes fuzzy C-means the same way, with
// membership-weighted partial sums. Its per-byte CPU cost is ~5x K-means
// (Table I: 15470 vs 3227 billions of instructions on the same input size).
func fuzzyKMeansWorkload() *Workload {
	return &Workload{
		Name:      "Fuzzy K-means",
		InputGB:   150,
		Domains:   []string{"search engine", "social network", "electronic commerce"},
		Scenarios: []string{"Image processing", "Speech recognition"},
		Run: func(env *Env) (*Stats, error) {
			st, _, _, err := fuzzyKMeans.run(env)
			return st, err
		},
	}
}

var fuzzyKMeans = clustering{
	name: "Fuzzy K-means", tag: "fkm",
	cost:   mapreduce.CostModel{MapCPUPerByte: 1.1e-8, ReduceCPUPerByte: 1e-9, OutputRatio: 0.001},
	mapper: fuzzyKMeansMapper,
	step: func(pts, centroids [][]float64) [][]float64 {
		next, _, _ := analysis.FuzzyKMeansStep(pts, centroids, fuzzinessFactor)
		return next
	},
}

// vecSumReducer folds "weight|vector" values into their total weight and
// component-wise sum, starting from zero and adding in value order. It is
// both combiner and reducer of the clustering jobs; as combiner it sees one
// already-summed record per key and re-emits it unchanged.
var vecSumReducer = mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emit) {
	var n float64
	var sum []float64
	for _, v := range values {
		w, vec := decodeWeightedVec(v)
		n += w
		if sum == nil {
			sum = make([]float64, len(vec))
		}
		for j := range vec {
			sum[j] += vec[j]
		}
	}
	emit(key, strconv.FormatFloat(n, 'g', -1, 64)+"|"+encodeVec(sum))
})

// decodeWeightedVec parses "weight|v1,v2,...".
func decodeWeightedVec(s string) (float64, []float64) {
	sep := strings.IndexByte(s, '|')
	w, err := strconv.ParseFloat(s[:sep], 64)
	if err != nil {
		panic(fmt.Sprintf("workloads: bad weighted vector %q", s))
	}
	return w, decodeVec(s[sep+1:])
}

// maxCentroidDiff returns the largest absolute coordinate difference
// between two centroid sets.
func maxCentroidDiff(a, b [][]float64) float64 {
	worst := 0.0
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
