package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"dcbench/internal/datagen"
	"dcbench/internal/hive"
	"dcbench/internal/mapreduce"
	"dcbench/internal/sim"
)

const (
	hiveGrepRowsPerSplit  = 30
	hiveRankRowsPerSplit  = 40
	hiveVisitRowsPerSplit = 50
)

// hiveSizes carves the 156 GB Hive-bench input (Table I) into the three
// benchmark tables, mirroring Pavlo et al.'s proportions.
func hiveSizes(scale float64) (grepB, rankB, visitB int64) {
	return int64(60 * gb * scale), int64(16 * gb * scale), int64(80 * gb * scale)
}

// hiveBenchWorkload runs the Hive-bench query suite as MapReduce jobs:
// Q1 a LIKE-filter selection over the grep table, Q2 a group-by aggregation
// over UserVisits, and Q3 a repartition join of Rankings with UserVisits
// followed by per-IP aggregation (two jobs). Every query's distributed
// result is verified against the in-memory internal/hive engine executing
// the same plan over identical data.
func hiveBenchWorkload() *Workload {
	return &Workload{
		Name:      "Hive-bench",
		InputGB:   156,
		Domains:   []string{"search engine", "social network", "electronic commerce"},
		Scenarios: []string{"Data warehouse operations"},
		Run: func(env *Env) (*Stats, error) {
			st := env.newStats("Hive-bench")
			grepB, rankB, visitB := hiveSizes(env.Scale)
			grepFile := env.DFS.AddFile("hive-grep", grepB)
			env.DFS.AddFile("hive-rankings", rankB) // read without locality by the join
			visitFile := env.DFS.AddFile("hive-uservisits", visitB)

			rankSplits := splits(rankB)
			pages := rankSplits * hiveRankRowsPerSplit

			grepGen := func(split int) []mapreduce.KV {
				c := datagen.NewCorpus(splitSeed(env.Seed, split), 3000)
				recs := make([]mapreduce.KV, hiveGrepRowsPerSplit)
				for i := range recs {
					recs[i] = mapreduce.KV{Key: fmt.Sprintf("g%d-%d", split, i), Value: c.Sentence(15)}
				}
				return recs
			}
			rankGen := func(split int) []mapreduce.KV {
				rng := sim.NewRNG(splitSeed(env.Seed+13, split))
				recs := make([]mapreduce.KV, hiveRankRowsPerSplit)
				for i := range recs {
					page := split*hiveRankRowsPerSplit + i
					recs[i] = mapreduce.KV{
						Key:   fmt.Sprintf("url-%06d", page),
						Value: strconv.Itoa(rng.Intn(100)),
					}
				}
				return recs
			}
			visitGen := func(split int) []mapreduce.KV {
				rng := sim.NewRNG(splitSeed(env.Seed+29, split))
				zipf := sim.NewZipf(rng, pages, 0.8)
				recs := make([]mapreduce.KV, hiveVisitRowsPerSplit)
				for i := range recs {
					recs[i] = mapreduce.KV{
						Key: fmt.Sprintf("10.%d.%d.%d", rng.Intn(4), rng.Intn(8), rng.Intn(8)),
						Value: fmt.Sprintf("url-%06d,%g", zipf.Next(),
							float64(rng.Intn(1000))/100),
					}
				}
				return recs
			}

			pattern := datagen.NewCorpus(env.Seed, 3000).WordAt(25)

			// --- Q1: SELECT * FROM grep WHERE field LIKE '%pattern%' ---
			q1 := &mapreduce.Job{
				Name:  "hive-q1-grep-select",
				Input: newGenInput(grepB, grepGen), InputFile: grepFile,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					if strings.Contains(kv.Value, pattern) {
						emit(kv.Key, kv.Value)
					}
				}),
				NumReducers: env.reducers(),
				OutputFile:  "hive-q1-out",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 0.8e-8, ReduceCPUPerByte: 1e-9},
			}
			q1Res, err := env.RT.Run(q1)
			if err != nil {
				return nil, err
			}

			// --- Q2: SELECT sourceip, SUM(adrevenue) FROM uservisits GROUP BY sourceip ---
			q2 := &mapreduce.Job{
				Name:  "hive-q2-aggregation",
				Input: newGenInput(visitB, visitGen), InputFile: visitFile,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					_, rev := splitVisit(kv.Value)
					emit(kv.Key, strconv.FormatFloat(rev, 'g', -1, 64))
				}),
				Combiner:    sumFloats,
				Reducer:     sumFloats,
				NumReducers: env.reducers(),
				OutputFile:  "hive-q2-out",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 1.2e-8, ReduceCPUPerByte: 2e-9},
			}
			q2Res, err := env.RT.Run(q2)
			if err != nil {
				return nil, err
			}

			// --- Q3a: repartition join rankings ⋈ uservisits ON url ---
			visitSplits := splits(visitB)
			joinInput := &joinedInput{
				left:      newGenInput(rankB, rankGen),
				right:     newGenInput(visitB, visitGen),
				leftSize:  rankSplits,
				rightSize: visitSplits,
			}
			q3a := &mapreduce.Job{
				Name:  "hive-q3a-join",
				Input: joinInput,
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) {
					if strings.HasPrefix(kv.Key, "url-") && !strings.Contains(kv.Value, ",") {
						// Rankings row: key=url, value=pagerank.
						emit(kv.Key, "R|"+kv.Value)
					} else {
						// Visits row: key=ip, value="url,revenue".
						url, rev := splitVisit(kv.Value)
						emit(url, "V|"+kv.Key+"|"+strconv.FormatFloat(rev, 'g', -1, 64))
					}
				}),
				Reducer: mapreduce.Reducer(func(url string, values []string, emit mapreduce.Emit) {
					rank := ""
					for _, v := range values {
						if strings.HasPrefix(v, "R|") {
							rank = v[2:]
							break
						}
					}
					if rank == "" {
						return
					}
					for _, v := range values {
						if strings.HasPrefix(v, "V|") {
							parts := strings.SplitN(v[2:], "|", 2)
							emit(parts[0], rank+","+parts[1]) // (ip, "rank,revenue")
						}
					}
				}),
				NumReducers: env.reducers(),
				Cost:        mapreduce.CostModel{MapCPUPerByte: 1.4e-8, ReduceCPUPerByte: 1e-8},
			}
			q3aRes, err := env.RT.Run(q3a)
			if err != nil {
				return nil, err
			}

			// --- Q3b: SELECT ip, AVG(pagerank), SUM(adrevenue) GROUP BY ip ---
			q3b := &mapreduce.Job{
				Name:   "hive-q3b-aggregate",
				Input:  chainInput(q3aRes),
				Mapper: mapreduce.Mapper(func(kv mapreduce.KV, emit mapreduce.Emit) { emit(kv.Key, kv.Value) }),
				Reducer: mapreduce.Reducer(func(ip string, values []string, emit mapreduce.Emit) {
					var rankSum, revSum float64
					for _, v := range values {
						sep := strings.IndexByte(v, ',')
						r, _ := strconv.ParseFloat(v[:sep], 64)
						rev, _ := strconv.ParseFloat(v[sep+1:], 64)
						rankSum += r
						revSum += rev
					}
					n := float64(len(values))
					emit(ip, strconv.FormatFloat(rankSum/n, 'g', -1, 64)+","+
						strconv.FormatFloat(revSum, 'g', -1, 64))
				}),
				NumReducers: env.reducers(),
				OutputFile:  "hive-q3-out",
				Cost:        mapreduce.CostModel{MapCPUPerByte: 0.6e-8, ReduceCPUPerByte: 2e-9},
			}
			q3bRes, err := env.RT.Run(q3b)
			if err != nil {
				return nil, err
			}

			// --- Verify every query against the in-memory hive engine ---
			quality := verifyHive(env, q1Res, q2Res, q3bRes, grepGen, rankGen, visitGen,
				splits(grepB), rankSplits, visitSplits, pattern)
			for k, v := range quality {
				st.Quality[k] = v
			}
			return env.finishStats(st, q1Res, q2Res, q3aRes, q3bRes), nil
		},
	}
}

// splitVisit parses "url,revenue".
func splitVisit(v string) (string, float64) {
	sep := strings.IndexByte(v, ',')
	rev, _ := strconv.ParseFloat(v[sep+1:], 64)
	return v[:sep], rev
}

// joinedInput concatenates two inputs' splits, as Hive's repartition join
// reads both tables in one map phase.
type joinedInput struct {
	left, right         mapreduce.InputFormat
	leftSize, rightSize int
}

// NumSplits implements mapreduce.InputFormat.
func (j *joinedInput) NumSplits() int { return j.leftSize + j.rightSize }

// Split implements mapreduce.InputFormat.
func (j *joinedInput) Split(i int) ([]mapreduce.KV, int64) {
	if i < j.leftSize {
		return j.left.Split(i)
	}
	return j.right.Split(i - j.leftSize)
}

// verifyHive executes the three queries on the in-memory engine and
// compares aggregates with the distributed results.
func verifyHive(env *Env, q1Res, q2Res, q3bRes *mapreduce.Result,
	grepGen, rankGen, visitGen func(int) []mapreduce.KV,
	grepSplits, rankSplits, visitSplits int, pattern string) map[string]float64 {

	grepTab := hive.NewTable("grep", hive.Schema{{Name: "key", Kind: hive.String}, {Name: "field", Kind: hive.String}})
	for s := 0; s < grepSplits; s++ {
		for _, kv := range grepGen(s) {
			grepTab.Append(kv.Key, kv.Value)
		}
	}
	rankTab := hive.NewTable("rankings", hive.Schema{{Name: "pageurl", Kind: hive.String}, {Name: "pagerank", Kind: hive.Int}})
	for s := 0; s < rankSplits; s++ {
		for _, kv := range rankGen(s) {
			pr, _ := strconv.ParseInt(kv.Value, 10, 64)
			rankTab.Append(kv.Key, pr)
		}
	}
	visitTab := hive.NewTable("uservisits", hive.Schema{
		{Name: "sourceip", Kind: hive.String}, {Name: "desturl", Kind: hive.String}, {Name: "adrevenue", Kind: hive.Float}})
	for s := 0; s < visitSplits; s++ {
		for _, kv := range visitGen(s) {
			url, rev := splitVisit(kv.Value)
			visitTab.Append(kv.Key, url, rev)
		}
	}
	q := map[string]float64{}

	// Q1: row counts must match.
	hq1 := grepTab.Scan().FilterLike("field", pattern)
	var mrQ1Rows int64
	for _, part := range q1Res.Output {
		mrQ1Rows += int64(len(part))
	}
	q["q1_rows_mr"] = float64(mrQ1Rows)
	q["q1_rows_hive"] = float64(len(hq1.Rows))
	q["q1_match"] = boolMetric(mrQ1Rows == int64(len(hq1.Rows)))

	// Q2: total revenue must match.
	hq2 := visitTab.Scan().GroupBy([]string{"sourceip"}, []hive.Agg{{Op: hive.Sum, Col: "adrevenue", As: "rev"}})
	var hiveRev float64
	for _, row := range hq2.Rows {
		hiveRev += row[1].(float64)
	}
	var mrRev float64
	for _, kv := range q2Res.Flat() {
		v, _ := strconv.ParseFloat(kv.Value, 64)
		mrRev += v
	}
	q["q2_groups_mr"] = float64(q2Res.Counters.OutputRecords)
	q["q2_groups_hive"] = float64(len(hq2.Rows))
	q["q2_revenue_match"] = boolMetric(approxEqual(hiveRev, mrRev, 1e-6))

	// Q3: joined group count and total joined revenue must match.
	hq3 := visitTab.Scan().
		Join(rankTab.Scan(), "desturl", "pageurl").
		GroupBy([]string{"sourceip"}, []hive.Agg{
			{Op: hive.Avg, Col: "pagerank", As: "avgrank"},
			{Op: hive.Sum, Col: "adrevenue", As: "rev"},
		})
	var hiveQ3Rev float64
	for _, row := range hq3.Rows {
		hiveQ3Rev += row[2].(float64)
	}
	var mrQ3Rev float64
	for _, kv := range q3bRes.Flat() {
		_, rev := splitVisit(kv.Value)
		mrQ3Rev += rev
	}
	q["q3_groups_mr"] = float64(q3bRes.Counters.OutputRecords)
	q["q3_groups_hive"] = float64(len(hq3.Rows))
	q["q3_revenue_match"] = boolMetric(approxEqual(hiveQ3Rev, mrQ3Rev, 1e-6))
	return q
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func approxEqual(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}
