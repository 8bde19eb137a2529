package workloads

import (
	"strconv"
	"strings"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
)

const (
	hmmStates      = 4
	hmmSymbols     = 40
	hmmSeqLen      = 200
	hmmSeqPerSplit = 2
)

// hmmShard generates one split's labelled training sequences.
func hmmShard(seed uint64, split int) (seqs, paths [][]int) {
	for i := 0; i < hmmSeqPerSplit; i++ {
		obs, hidden := datagen.ObservationSeq(splitSeed(seed, split)+uint64(i), hmmStates, hmmSymbols, hmmSeqLen)
		seqs = append(seqs, obs)
		paths = append(paths, hidden)
	}
	return seqs, paths
}

// encodeInts serialises an int sequence.
func encodeInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// decodeInts parses encodeInts output.
func decodeInts(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	xs := make([]int, len(parts))
	for i, p := range parts {
		xs[i], _ = strconv.Atoi(p)
	}
	return xs
}

// hmmWorkload is the paper's segmentation application: supervised training
// of a hidden Markov model by distributed counting (job 1), then Viterbi
// decoding of fresh sequences with the trained model (job 2). Quality is
// decoding accuracy against the true hidden paths.
func hmmWorkload() *Workload {
	return &Workload{
		Name:      "HMM",
		InputGB:   147,
		Domains:   []string{"social network", "search engine"},
		Scenarios: []string{"Speech recognition", "Word Segmentation", "Handwriting recognition"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("HMM")
			simBytes := int64(147 * gb * env.Scale)
			trainFile := env.DFS.AddFile("hmm-train", simBytes/2)
			decodeFile := env.DFS.AddFile("hmm-decode", simBytes/2)

			trainInput := newGenInput(simBytes/2, func(split int) []mapreduce.KV {
				seqs, paths := hmmShard(env.Seed, split)
				recs := make([]mapreduce.KV, len(seqs))
				for i := range seqs {
					recs[i] = mapreduce.KV{Key: encodeInts(paths[i]), Value: encodeInts(seqs[i])}
				}
				return recs
			})
			// Job 1: count initial/transition/emission events.
			trainJob := &mapreduce.Job{
				Name:  "hmm-train",
				Input: trainInput, InputFile: trainFile,
				Mapper: mapreduce.MapperFunc(func(kv mapreduce.KV, emit mapreduce.Emit) {
					path := decodeInts(kv.Key)
					obs := decodeInts(kv.Value)
					emit("pi|"+strconv.Itoa(path[0]), "1")
					for t := range obs {
						emit("b|"+strconv.Itoa(path[t])+"|"+strconv.Itoa(obs[t]), "1")
						if t > 0 {
							emit("a|"+strconv.Itoa(path[t-1])+"|"+strconv.Itoa(path[t]), "1")
						}
					}
				}),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: env.reducers(),
				Cost:        mapreduce.CostModel{MapCPUPerByte: 3e-9, ReduceCPUPerByte: 0.5e-9, OutputRatio: 0.01},
			}
			trainRes, err := env.RT.Run(trainJob)
			if err != nil {
				return nil, err
			}

			// Build the model from the distributed counts.
			pi := make([]float64, hmmStates)
			a := make([][]float64, hmmStates)
			b := make([][]float64, hmmStates)
			for s := range a {
				a[s] = make([]float64, hmmStates)
				b[s] = make([]float64, hmmSymbols)
			}
			for _, kv := range trainRes.Flat() {
				parts := strings.Split(kv.Key, "|")
				n, _ := strconv.ParseFloat(kv.Value, 64)
				switch parts[0] {
				case "pi":
					s, _ := strconv.Atoi(parts[1])
					pi[s] += n
				case "a":
					s, _ := strconv.Atoi(parts[1])
					t2, _ := strconv.Atoi(parts[2])
					a[s][t2] += n
				case "b":
					s, _ := strconv.Atoi(parts[1])
					o, _ := strconv.Atoi(parts[2])
					b[s][o] += n
				}
			}
			model := analysis.NewHMM(hmmStates, hmmSymbols)
			model.SetFromCounts(pi, a, b)

			// Job 2: Viterbi-decode fresh sequences with the trained model.
			decodeInput := newGenInput(simBytes/2, func(split int) []mapreduce.KV {
				seqs, paths := hmmShard(env.Seed+991, split)
				recs := make([]mapreduce.KV, len(seqs))
				for i := range seqs {
					recs[i] = mapreduce.KV{Key: encodeInts(paths[i]), Value: encodeInts(seqs[i])}
				}
				return recs
			})
			decodeJob := &mapreduce.Job{
				Name:  "hmm-decode",
				Input: decodeInput, InputFile: decodeFile,
				Mapper: mapreduce.MapperFunc(func(kv mapreduce.KV, emit mapreduce.Emit) {
					truth := decodeInts(kv.Key)
					obs := decodeInts(kv.Value)
					path, _ := model.Viterbi(obs)
					match := 0
					for t := range path {
						if path[t] == truth[t] {
							match++
						}
					}
					emit("match", strconv.Itoa(match))
					emit("total", strconv.Itoa(len(path)))
				}),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: 1,
				Cost:        mapreduce.CostModel{MapCPUPerByte: 4e-9, ReduceCPUPerByte: 0.5e-9, OutputRatio: 0.0001},
			}
			decodeRes, err := env.RT.Run(decodeJob)
			if err != nil {
				return nil, err
			}
			var match, total float64
			for _, kv := range decodeRes.Flat() {
				v, _ := strconv.ParseFloat(kv.Value, 64)
				if kv.Key == "match" {
					match = v
				} else if kv.Key == "total" {
					total = v
				}
			}
			if total > 0 {
				st.Quality["decode_accuracy"] = match / total
			}
			return env.finishStats(st, trainRes, decodeRes), nil
		},
	}
}
