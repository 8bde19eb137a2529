package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/mapreduce"
)

const bayesClasses = 5

// sumFloats is a reducer summing float-encoded values.
var sumFloats = mapreduce.Reducer(func(key string, values []string, emit mapreduce.Emit) {
	total := 0.0
	for _, v := range values {
		f, _ := strconv.ParseFloat(v, 64)
		total += f
	}
	emit(key, strconv.FormatFloat(total, 'g', -1, 64))
})

// naiveBayesWorkload trains a multinomial Naive Bayes text classifier the
// Mahout way: map tasks count (class, word) occurrences over their shard,
// the reduce side aggregates counts, and the driver assembles the model.
// Quality is held-out classification accuracy — a real learning outcome,
// not a smoke test.
func naiveBayesWorkload() *Workload {
	return &Workload{
		Name:      "Naive Bayes",
		InputGB:   147,
		Domains:   []string{"social network", "electronic commerce"},
		Scenarios: []string{"Spam recognition", "Web page classification"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("Naive Bayes")
			simBytes := int64(147 * gb * env.Scale)
			file := env.DFS.AddFile("bayes-input", simBytes)
			const docsPerSplit = 20
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				c := datagen.NewCorpus(splitSeed(env.Seed, split), 2000)
				recs := make([]mapreduce.KV, docsPerSplit)
				for i := range recs {
					class := (split*docsPerSplit + i) % bayesClasses
					recs[i] = mapreduce.KV{
						Key:   strconv.Itoa(class),
						Value: c.LabeledSentence(class, bayesClasses, 30),
					}
				}
				return recs
			})
			job := &mapreduce.Job{
				Name:  "bayes-train",
				Input: input, InputFile: file,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					class := kv.Key
					emit("doc|"+class, "1")
					for _, w := range analysis.Tokenize(kv.Value) {
						emit("cw|"+class+"|"+w, "1")
					}
				}),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: env.reducers(),
				OutputFile:  "bayes-model",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 2.2e-7, ReduceCPUPerByte: 3e-8, OutputRatio: 0.02},
			}
			res, err := env.RT.Run(job)
			if err != nil {
				return nil, err
			}
			// Assemble the model from the distributed counts.
			nb := analysis.NewNaiveBayes(bayesClasses)
			for _, kv := range res.Flat() {
				n, _ := strconv.ParseFloat(kv.Value, 64)
				switch {
				case strings.HasPrefix(kv.Key, "doc|"):
					class, _ := strconv.Atoi(kv.Key[len("doc|"):])
					nb.AddClassDocs(class, n)
				case strings.HasPrefix(kv.Key, "cw|"):
					rest := kv.Key[len("cw|"):]
					sep := strings.IndexByte(rest, '|')
					class, _ := strconv.Atoi(rest[:sep])
					nb.AddWordCount(class, rest[sep+1:], n)
				}
			}
			// Held-out evaluation on fresh documents.
			eval := datagen.NewCorpus(env.Seed+777, 2000)
			right := 0
			const evalDocs = 100
			for i := 0; i < evalDocs; i++ {
				class := i % bayesClasses
				if nb.Predict(analysis.Tokenize(eval.LabeledSentence(class, bayesClasses, 30))) == class {
					right++
				}
			}
			st.Quality["holdout_accuracy"] = float64(right) / evalDocs
			return env.finishStats(st, res), nil
		},
	}
}

const (
	svmDim          = 256
	svmIters        = 8
	svmDocsPerSplit = 20
)

// svmShards returns the function producing a split's training examples:
// hashed HTML-page features x and labels y in {-1, +1}. A split's documents
// depend on (seed, split) only, so each is generated and tokenized once and
// kept as its token bucket indices (~0.4 MB per run). Every call rebuilds
// the dense vectors into one buffer, so x and y are valid only until the
// next call: a map task consumes them without blocking, so no other task
// calls in between.
func svmShards(seed uint64, splits int) func(split int) (x [][]float64, y []int) {
	docs := make([][][]uint16, splits)
	rows := make([]float64, svmDocsPerSplit*svmDim)
	x := make([][]float64, svmDocsPerSplit)
	for i := range x {
		x[i] = rows[i*svmDim : (i+1)*svmDim : (i+1)*svmDim]
	}
	y := make([]int, svmDocsPerSplit)
	return func(split int) ([][]float64, []int) {
		if docs[split] == nil {
			c := datagen.NewCorpus(splitSeed(seed, split), 2000)
			docs[split] = make([][]uint16, svmDocsPerSplit)
			for i := range docs[split] {
				page := c.HTMLPage(1, 15)
				// Mix in the class-bearing words.
				page += " " + c.LabeledSentence((split*svmDocsPerSplit+i)%2, 2, 40)
				docs[split][i] = analysis.HashBuckets(analysis.Tokenize(page), svmDim)
			}
		}
		for i, buckets := range docs[split] {
			analysis.FillBucketFeatures(x[i], buckets)
			y[i] = 2*((split*svmDocsPerSplit+i)%2) - 1
		}
		return x, y
	}
}

// svmMapper computes the Pegasos sub-gradient of its shard against the
// broadcast weights. A map task emits each key once, already in sumFloats'
// output format, so the job runs without a combiner: one would parse and
// re-format every record to the same bytes.
func svmMapper(shard func(int) ([][]float64, []int), gradKeys []string, w []float64, bias, lambda float64) mapreduce.Mapper {
	return mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
		split, _ := strconv.Atoi(kv.Key)
		x, y := shard(split)
		dw, violations := analysis.SubGradient(w, bias, lambda, x, y)
		for j, g := range dw {
			if g != 0 {
				emit(gradKeys[j], strconv.FormatFloat(g, 'g', -1, 64))
			}
		}
		emit("violations", strconv.Itoa(violations))
		emit("shards", "1")
	})
}

// svmWorkload trains a linear SVM on hashed HTML-page features with
// distributed batch sub-gradient descent: each iteration is one MapReduce
// job whose map tasks compute the Pegasos sub-gradient of their shard
// against the broadcast weights and whose reduce side sums them; the
// driver applies the averaged step. This is the standard way to run
// full-batch hinge-loss training on MapReduce.
func svmWorkload() *Workload {
	return &Workload{
		Name:      "SVM",
		InputGB:   148,
		Domains:   []string{"social network", "electronic commerce"},
		Scenarios: []string{"Image Processing", "Data Mining", "Text Categorization"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("SVM")
			simBytes := int64(148 * gb * env.Scale)
			file := env.DFS.AddFile("svm-input", simBytes)
			input := newGenInput(simBytes, func(split int) []mapreduce.KV {
				return []mapreduce.KV{{Key: strconv.Itoa(split), Value: strconv.Itoa(svmDocsPerSplit)}}
			})
			shard := svmShards(env.Seed, input.NumSplits())
			gradKeys := make([]string, svmDim)
			for j := range gradKeys {
				gradKeys[j] = "g|" + strconv.Itoa(j)
			}

			w := make([]float64, svmDim)
			bias := 0.0
			lambda := 0.001
			var results []*mapreduce.Result
			var lastViolations float64
			for iter := 1; iter <= svmIters; iter++ {
				job := &mapreduce.Job{
					Name:  fmt.Sprintf("svm-iter-%d", iter),
					Input: input, InputFile: file,
					Mapper:      svmMapper(shard, gradKeys, w, bias, lambda),
					Reducer:     sumFloats,
					NumReducers: env.reducers(),
					Cost:        mapreduce.CostModel{MapCPUPerByte: 0.8e-9, ReduceCPUPerByte: 0.2e-9, OutputRatio: 0.001},
				}
				res, err := env.RT.Run(job)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
				grad := make([]float64, svmDim)
				var shards float64
				for _, kv := range res.Flat() {
					v, _ := strconv.ParseFloat(kv.Value, 64)
					switch {
					case strings.HasPrefix(kv.Key, "g|"):
						j, _ := strconv.Atoi(kv.Key[2:])
						grad[j] = v
					case kv.Key == "violations":
						lastViolations = v
					case kv.Key == "shards":
						shards = v
					}
				}
				if shards == 0 {
					shards = 1
				}
				eta := 2 / float64(iter)
				for j := range w {
					w[j] -= eta * grad[j] / shards
				}
			}
			// Quality: training accuracy of the distributed model over a
			// sample of shards.
			model := &analysis.SVM{W: w, Bias: bias, Lambda: lambda}
			var right, total int
			for split := 0; split < input.NumSplits(); split += 1 + input.NumSplits()/8 {
				x, y := shard(split)
				for i := range x {
					if model.Predict(x[i]) == y[i] {
						right++
					}
					total++
				}
			}
			st.Quality["train_accuracy"] = float64(right) / float64(total)
			st.Quality["final_violations"] = lastViolations
			return env.finishStats(st, results...), nil
		},
	}
}
