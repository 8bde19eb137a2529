package workloads

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
)

const (
	ibcfUsersPerSplit  = 10
	ibcfItems          = 60
	ibcfRatingsPerUser = 12
)

// ibcfShard generates one split's ratings: a disjoint user range over a
// shared item space, so item-item similarities span splits.
func ibcfShard(seed uint64, split int) []datagen.Rating {
	rs := datagen.Ratings(splitSeed(seed, split), ibcfUsersPerSplit, ibcfItems, ibcfRatingsPerUser)
	for i := range rs {
		rs[i].User += split * ibcfUsersPerSplit
	}
	return rs
}

// ibcfWorkload is Mahout-style item-based collaborative filtering as a
// three-job pipeline: (1) per-item squared norms, (2) per-user co-rated
// item pair products, (3) pair-product aggregation. The driver combines the
// norms and pair sums into cosine similarities and checks them against the
// serial analysis.ItemCF on identical data. IBCF is the second most
// instruction-hungry workload in Table I, reflected in its CPU rates and
// pair-explosion shuffle ratio.
func ibcfWorkload() *Workload {
	return &Workload{
		Name:      "IBCF",
		InputGB:   147,
		Domains:   []string{"electronic commerce", "social network", "search engine"},
		Scenarios: []string{"Recommend goods", "Recommend friends", "Recommend key words"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("IBCF")
			simBytes := int64(147 * gb * env.Scale)
			file := env.DFS.AddFile("ibcf-input", simBytes)
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				rs := ibcfShard(env.Seed, split)
				recs := make([]mapreduce.KV, len(rs))
				for i, r := range rs {
					recs[i] = mapreduce.KV{
						Key:   strconv.Itoa(r.User),
						Value: fmt.Sprintf("%d,%g", r.Item, r.Score),
					}
				}
				return recs
			})

			// Job 1: per-item squared norms.
			normsJob := &mapreduce.Job{
				Name:  "ibcf-norms",
				Input: input, InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					item, score := parseRating(kv.Value)
					emit("n|"+strconv.Itoa(item), strconv.FormatFloat(score*score, 'g', -1, 64))
				}),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: env.reducers(),
				Cost:        mapreduce.CostModel{MapCPUPerByte: 1e-8, ReduceCPUPerByte: 1e-9},
			}
			normsRes, err := env.RT.Run(normsJob)
			if err != nil {
				return nil, err
			}

			// Job 2: co-rated pair products, grouped by user.
			pairsJob := &mapreduce.Job{
				Name:  "ibcf-pairs",
				Input: input, InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					emit(kv.Key, kv.Value) // group ratings by user
				}),
				Reducer: mapreduce.Reducer(func(user string, values []string, emit mapreduce.Emit) {
					type ir struct {
						item  int
						score float64
					}
					rs := make([]ir, 0, len(values))
					for _, v := range values {
						item, score := parseRating(v)
						rs = append(rs, ir{item, score})
					}
					sort.Slice(rs, func(i, j int) bool { return rs[i].item < rs[j].item })
					for i := 0; i < len(rs); i++ {
						for j := i + 1; j < len(rs); j++ {
							emit(fmt.Sprintf("p|%d|%d", rs[i].item, rs[j].item),
								strconv.FormatFloat(rs[i].score*rs[j].score, 'g', -1, 64))
						}
					}
				}),
				NumReducers: env.reducers(),
				// The pair cross-product inflates the data ~6x (C(12,2)=66
				// pairs from 12 ratings), making this the heavy shuffle.
				Cost: mapreduce.CostModel{MapCPUPerByte: 4e-8, ReduceCPUPerByte: 3e-8, OutputRatio: 4},
			}
			pairsRes, err := env.RT.Run(pairsJob)
			if err != nil {
				return nil, err
			}

			// Job 3: aggregate pair products.
			agg := &mapreduce.Job{
				Name:        "ibcf-aggregate",
				Input:       chainInput(pairsRes),
				Mapper:      mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) { emit(kv.Key, kv.Value) }),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: env.reducers(),
				Cost:        mapreduce.CostModel{MapCPUPerByte: 3e-8, ReduceCPUPerByte: 1e-8},
			}
			aggRes, err := env.RT.Run(agg)
			if err != nil {
				return nil, err
			}

			// Assemble cosine similarities from the distributed outputs.
			norms := map[int]float64{}
			for _, kv := range normsRes.Flat() {
				item, _ := strconv.Atoi(strings.TrimPrefix(kv.Key, "n|"))
				norms[item], _ = strconv.ParseFloat(kv.Value, 64)
			}
			// Verify against the serial recommender on the same ratings.
			cf := analysis.NewItemCF(ibcfItems)
			for split := 0; split < input.NumSplits(); split++ {
				for _, r := range ibcfShard(env.Seed, split) {
					cf.Add(r.User, r.Item, r.Score)
				}
			}
			// The first 500 pairs in reducer-output order: a fixed sample, so
			// the record is a pure function of its key.
			pairs := aggRes.Flat()
			worst := 0.0
			for _, kv := range pairs[:min(len(pairs), 500)] {
				parts := strings.Split(kv.Key, "|")
				a, _ := strconv.Atoi(parts[1])
				b, _ := strconv.Atoi(parts[2])
				dot, _ := strconv.ParseFloat(kv.Value, 64)
				sim := dot / math.Sqrt(norms[a]*norms[b])
				if d := math.Abs(cf.Cosine(a, b) - sim); d > worst {
					worst = d
				}
			}
			st.Quality["cosine_divergence"] = worst
			st.Quality["pairs"] = float64(len(pairs))
			return env.finishStats(st, normsRes, pairsRes, aggRes), nil
		},
	}
}

// parseRating splits "item,score".
func parseRating(v string) (int, float64) {
	sep := strings.IndexByte(v, ',')
	item, _ := strconv.Atoi(v[:sep])
	score, err := strconv.ParseFloat(v[sep+1:], 64)
	if err != nil {
		panic(fmt.Sprintf("workloads: bad rating %q", v))
	}
	return item, score
}

// chainInput moves a finished job's output into a follow-up job's input,
// carrying the simulated output size forward. The records are handed over,
// not shared: res.Output is cleared and Split releases each split to the
// map task that takes it, so a pipeline's intermediate data (IBCF's pair
// products are half its live heap) dies with its reader, not with the run.
func chainInput(res *mapreduce.Result) *chainedInput {
	in := &chainedInput{}
	n := 0
	for _, part := range res.Output {
		if len(part) > 0 {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	per := res.Counters.OutputSimBytes / int64(n)
	for _, part := range res.Output {
		if len(part) == 0 {
			continue
		}
		in.Splits = append(in.Splits, part)
		in.SimBytes = append(in.SimBytes, per)
	}
	if len(in.Splits) == 0 {
		in.Splits = [][]mapreduce.KV{nil}
		in.SimBytes = []int64{0}
	}
	res.Output = nil
	return in
}

// chainedInput is a SliceInput read once: the engine asks for each split
// one time, and gets the only reference to it.
type chainedInput struct{ mapreduce.SliceInput }

// Split implements mapreduce.InputFormat.
func (c *chainedInput) Split(i int) ([]mapreduce.KV, int64) {
	recs, simBytes := c.SliceInput.Split(i)
	c.Splits[i] = nil
	return recs, simBytes
}
