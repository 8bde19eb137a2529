package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
	"dcbench/internal/sim"
)

// sortWorkload is the Hadoop-example Sort: identity map, range
// partitioning for a global total order, identity reduce. Its defining
// properties in the paper are that output size equals input size and the
// computation is trivial, making it the most I/O- and OS-intensive workload
// (Figures 4 and 5).
func sortWorkload() *Workload {
	return &Workload{
		Name:      "Sort",
		InputGB:   150,
		Domains:   []string{"electronic commerce", "search engine", "social network"},
		Scenarios: []string{"Document sorting", "Pages sorting"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("Sort")
			simBytes := int64(150 * gb * env.Scale)
			file := env.DFS.AddFile("sort-input", simBytes)
			const recsPerSplit = 100
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				rng := sim.NewRNG(splitSeed(env.Seed, split))
				recs := make([]mapreduce.KV, recsPerSplit)
				for i := range recs {
					key := make([]byte, 10)
					for j := range key {
						key[j] = byte('a' + rng.Intn(26))
					}
					val := make([]byte, 90)
					for j := range val {
						val[j] = byte('A' + rng.Intn(26))
					}
					recs[i] = mapreduce.KV{Key: string(key), Value: string(val)}
				}
				return recs
			})
			job := &mapreduce.Job{
				Name:      "sort",
				Input:     input,
				InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					emit(kv.Key, kv.Value)
				}),
				NumReducers: env.reducers(),
				OutputFile:  "sort-output",
				// Range partitioner on the first key byte: a TeraSort-style
				// total order across reducers.
				Partition: func(key string, r int) int {
					if key == "" {
						return 0
					}
					p := int(key[0]-'a') * r / 26
					if p >= r {
						p = r - 1
					}
					return p
				},
				Cost: mapreduce.CostModel{MapCPUPerByte: 0.8e-8, ReduceCPUPerByte: 0.8e-8},
			}
			res, err := env.RT.Run(job)
			if err != nil {
				return nil, err
			}
			// Quality: global order must hold across reducer boundaries.
			sorted := 1.0
			var prev string
			for _, part := range res.Output {
				for _, kv := range part {
					if kv.Key < prev {
						sorted = 0
					}
					prev = kv.Key
				}
			}
			st.Quality["globally_sorted"] = sorted
			st.Quality["records"] = float64(res.Counters.OutputRecords)
			return env.finishStats(st, res), nil
		},
	}
}

// wordCountWorkload reads documents and counts word occurrences, with a
// combiner — the canonical aggregation-shaped MapReduce job.
func wordCountWorkload() *Workload {
	return &Workload{
		Name:      "WordCount",
		InputGB:   154,
		Domains:   []string{"search engine", "social network", "electronic commerce"},
		Scenarios: []string{"Word frequency count", "Calculating the TF-IDF value", "Obtaining the user operations count"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("WordCount")
			simBytes := int64(154 * gb * env.Scale)
			file := env.DFS.AddFile("wc-input", simBytes)
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				c := datagen.NewCorpus(splitSeed(env.Seed, split), 5000)
				recs := make([]mapreduce.KV, 30)
				for i := range recs {
					recs[i] = mapreduce.KV{Key: fmt.Sprintf("line-%d-%d", split, i), Value: c.Sentence(20)}
				}
				return recs
			})
			sum := mapreduce.Reducer(func(key string, values []string, emit mapreduce.Emit) {
				total := 0
				for _, v := range values {
					n, _ := strconv.Atoi(v)
					total += n
				}
				emit(key, strconv.Itoa(total))
			})
			job := &mapreduce.Job{
				Name:  "wordcount",
				Input: input, InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					for _, w := range strings.Fields(kv.Value) {
						emit(w, "1")
					}
				}),
				Combiner:    sum,
				Reducer:     sum,
				NumReducers: env.reducers(),
				OutputFile:  "wc-output",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 1.0e-8, ReduceCPUPerByte: 0.5e-8},
			}
			res, err := env.RT.Run(job)
			if err != nil {
				return nil, err
			}
			// Quality: counted words must equal the words actually generated.
			var counted int64
			for _, kv := range res.Flat() {
				n, _ := strconv.Atoi(kv.Value)
				counted += int64(n)
			}
			var generated int64
			for i := 0; i < input.NumSplits(); i++ {
				recs, _ := input.Split(i)
				for _, kv := range recs {
					generated += int64(len(strings.Fields(kv.Value)))
				}
			}
			st.Quality["counted_words"] = float64(counted)
			st.Quality["distinct_words"] = float64(res.Counters.OutputRecords)
			st.Quality["conservation"] = 0
			if counted == generated {
				st.Quality["conservation"] = 1
			}
			return env.finishStats(st, res), nil
		},
	}
}

// grepWorkload extracts lines matching a pattern and counts matches, the
// third Hadoop-example basic operation.
func grepWorkload() *Workload {
	return &Workload{
		Name:      "Grep",
		InputGB:   154,
		Domains:   []string{"search engine", "social network", "electronic commerce"},
		Scenarios: []string{"Log analysis", "Web information extraction", "Fuzzy search"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("Grep")
			simBytes := int64(154 * gb * env.Scale)
			file := env.DFS.AddFile("grep-input", simBytes)
			var pattern string
			{
				c := datagen.NewCorpus(env.Seed, 5000)
				pattern = c.WordAt(40) // a moderately common word
			}
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				c := datagen.NewCorpus(splitSeed(env.Seed, split), 5000)
				recs := make([]mapreduce.KV, 30)
				for i := range recs {
					recs[i] = mapreduce.KV{Key: fmt.Sprintf("line-%d-%d", split, i), Value: c.Sentence(20)}
				}
				return recs
			})
			sum := mapreduce.Reducer(func(key string, values []string, emit mapreduce.Emit) {
				total := 0
				for _, v := range values {
					n, _ := strconv.Atoi(v)
					total += n
				}
				emit(key, strconv.Itoa(total))
			})
			job := &mapreduce.Job{
				Name:  "grep",
				Input: input, InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					n := 0
					for _, w := range strings.Fields(kv.Value) {
						if w == pattern {
							n++
						}
					}
					if n > 0 {
						emit(pattern, strconv.Itoa(n))
					}
				}),
				Combiner:    sum,
				Reducer:     sum,
				NumReducers: 1, // grep output is tiny
				OutputFile:  "grep-output",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 0.5e-8, ReduceCPUPerByte: 0.1e-8},
			}
			res, err := env.RT.Run(job)
			if err != nil {
				return nil, err
			}
			var matches int64
			for _, kv := range res.Flat() {
				n, _ := strconv.Atoi(kv.Value)
				matches += int64(n)
			}
			st.Quality["matches"] = float64(matches)
			return env.finishStats(st, res), nil
		},
	}
}
