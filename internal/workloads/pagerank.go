package workloads

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
)

const (
	prNodesPerSplit = 8
	prEdgesPerNode  = 4
	prDamping       = 0.85
	prIters         = 5
)

// prGraph builds the workload's web graph, patched so every node has at
// least one outlink (the distributed job then needs no dangling-mass
// aggregation; the serial reference runs on the same patched graph).
func prGraph(seed uint64, splits int) [][]int {
	n := splits * prNodesPerSplit
	adj := datagen.WebGraph(seed, n, prEdgesPerNode)
	for i := range adj {
		if len(adj[i]) == 0 {
			adj[i] = []int{(i + 1) % n}
		}
	}
	return adj
}

// pageRankWorkload runs the classic two-output MapReduce PageRank: each
// iteration's map emits the node's link list and a rank share per outlink;
// the reduce side sums shares into the damped new rank and re-attaches the
// links. The driver checks the distributed ranks against serial power
// iteration on the same graph.
func pageRankWorkload() *Workload {
	return &Workload{
		Name:      "PageRank",
		InputGB:   187,
		Domains:   []string{"search engine"},
		Scenarios: []string{"Compute the page rank"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("PageRank")
			simBytes := int64(187 * gb * env.Scale)
			splits := splits(simBytes)
			adj := prGraph(env.Seed, splits)
			n := len(adj)
			simPerSplit := simBytes / int64(splits)

			// State records: (node, "rank|t1,t2,...").
			makeInput := func(ranks []float64) *mapreduce.SliceInput {
				in := &mapreduce.SliceInput{}
				for s := 0; s < splits; s++ {
					var recs []mapreduce.KV
					for i := s * prNodesPerSplit; i < (s+1)*prNodesPerSplit && i < n; i++ {
						recs = append(recs, mapreduce.KV{
							Key:   strconv.Itoa(i),
							Value: strconv.FormatFloat(ranks[i], 'g', -1, 64) + "|" + encodeInts(adj[i]),
						})
					}
					in.Splits = append(in.Splits, recs)
					in.SimBytes = append(in.SimBytes, simPerSplit)
				}
				return in
			}

			ranks := make([]float64, n)
			for i := range ranks {
				ranks[i] = 1 / float64(n)
			}
			base := (1 - prDamping) / float64(n)

			var results []*mapreduce.Result
			for iter := 1; iter <= prIters; iter++ {
				job := &mapreduce.Job{
					Name:  fmt.Sprintf("pagerank-iter-%d", iter),
					Input: makeInput(ranks),
					Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
						sep := strings.IndexByte(kv.Value, '|')
						rank, _ := strconv.ParseFloat(kv.Value[:sep], 64)
						links := decodeInts(kv.Value[sep+1:])
						emit(kv.Key, "L|"+kv.Value[sep+1:])
						share := rank / float64(len(links))
						for _, t := range links {
							emit(strconv.Itoa(t), "S|"+strconv.FormatFloat(share, 'g', -1, 64))
						}
					}),
					Reducer: mapreduce.Reducer(func(key string, values []string, emit mapreduce.Emit) {
						var links string
						sum := 0.0
						for _, v := range values {
							switch v[0] {
							case 'L':
								links = v[2:]
							case 'S':
								s, _ := strconv.ParseFloat(v[2:], 64)
								sum += s
							}
						}
						emit(key, strconv.FormatFloat(base+prDamping*sum, 'g', -1, 64)+"|"+links)
					}),
					NumReducers: env.reducers(),
					Cost:        mapreduce.CostModel{MapCPUPerByte: 1.06e-8, ReduceCPUPerByte: 2e-9},
				}
				res, err := env.RT.Run(job)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
				for _, kv := range res.Flat() {
					node, _ := strconv.Atoi(kv.Key)
					sep := strings.IndexByte(kv.Value, '|')
					ranks[node], _ = strconv.ParseFloat(kv.Value[:sep], 64)
				}
			}

			// Serial reference: the same number of power iterations.
			serial := make([]float64, n)
			for i := range serial {
				serial[i] = 1 / float64(n)
			}
			for it := 0; it < prIters; it++ {
				serial = analysis.PageRankStep(adj, serial, prDamping)
			}
			l1 := 0.0
			sum := 0.0
			for i := range ranks {
				l1 += math.Abs(ranks[i] - serial[i])
				sum += ranks[i]
			}
			st.Quality["serial_l1"] = l1
			st.Quality["rank_sum"] = sum
			return env.finishStats(st, results...), nil
		},
	}
}
