package mapreduce

import (
	"fmt"
	"slices"
	"strings"

	"dcbench/internal/cluster"
	"dcbench/internal/dfs"
	"dcbench/internal/sim"
)

// RuntimeConfig holds the Hadoop deployment knobs from the paper's Section
// III-B: 24 map and 12 reduce task slots per slave, plus task startup and
// heartbeat costs typical of Hadoop 1.x.
type RuntimeConfig struct {
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	TaskStartup        float64 // seconds: JVM spawn + task init
	Heartbeat          float64 // seconds: scheduling delay per assignment
}

// DefaultRuntimeConfig mirrors the paper's Hadoop settings.
func DefaultRuntimeConfig() RuntimeConfig {
	return RuntimeConfig{
		MapSlotsPerNode:    24,
		ReduceSlotsPerNode: 12,
		TaskStartup:        1.0,
		Heartbeat:          0.3,
	}
}

// Job describes one MapReduce job.
type Job struct {
	Name        string
	Input       InputFormat
	InputFile   *dfs.File // optional: block placement for locality; nil = no locality
	Mapper      Mapper
	Combiner    Reducer // optional, applied to per-task map output
	Reducer     Reducer // nil means identity
	NumReducers int
	OutputFile  string // DFS output name; empty = keep output in memory only
	Partition   Partitioner
	Cost        CostModel
}

// Counters aggregates a finished job's accounting.
type Counters struct {
	MapTasks         int
	ReduceTasks      int
	DataLocalMaps    int
	MapInputRecords  int64
	MapOutputRecords int64
	OutputRecords    int64
	InputSimBytes    int64
	ShuffleSimBytes  int64
	OutputSimBytes   int64
}

// Result is a finished job: real output records plus simulated accounting.
type Result struct {
	Job      *Job
	Output   [][]KV // output per reducer, each sorted by key
	Start    float64
	Finish   float64
	Counters Counters
}

// Makespan is the job's simulated duration.
func (r *Result) Makespan() float64 { return r.Finish - r.Start }

// Flat returns all output records merged in reducer order.
func (r *Result) Flat() []KV {
	var out []KV
	for _, part := range r.Output {
		out = append(out, part...)
	}
	return out
}

// Runtime runs jobs on one cluster + DFS pair. Jobs run sequentially on the
// shared virtual clock, so multi-job workloads (Hive plans, iterative
// algorithms) accumulate a combined makespan.
type Runtime struct {
	C   *cluster.Cluster
	D   *dfs.DFS
	Cfg RuntimeConfig
}

// NewRuntime creates a runtime with the given deployment configuration.
func NewRuntime(c *cluster.Cluster, d *dfs.DFS, cfg RuntimeConfig) *Runtime {
	return &Runtime{C: c, D: d, Cfg: cfg}
}

// mapTaskOut is a map task's partitioned, locally "spilled" output.
type mapTaskOut struct {
	node       int
	partitions [][]KV  // real records per reduce partition
	simBytes   []int64 // simulated bytes per partition
}

// Run executes the job to completion and returns its result. It drives the
// cluster's event engine until the job (and background DFS replication)
// drains, so it must not be called concurrently with another Run on the same
// cluster.
func (rt *Runtime) Run(job *Job) (*Result, error) {
	if job.Input == nil || job.Mapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs input and mapper", job.Name)
	}
	if job.NumReducers <= 0 {
		job.NumReducers = len(rt.C.Nodes)
	}
	if job.Partition == nil {
		job.Partition = HashPartition
	}
	reducer := job.Reducer
	if reducer == nil {
		reducer = IdentityReducer
	}

	res := &Result{Job: job, Start: rt.C.Eng.Now()}
	nSplits := job.Input.NumSplits()
	res.Counters.MapTasks = nSplits
	res.Counters.ReduceTasks = job.NumReducers

	// ---- Map phase ----
	mapOuts := make([]*mapTaskOut, nSplits)
	pendingMaps := make([]int, nSplits)
	for i := range pendingMaps {
		pendingMaps[i] = i
	}
	var mapWG sim.WaitGroup
	mapWG.Add(nSplits)

	takeMap := func(node int) (int, bool) {
		if len(pendingMaps) == 0 {
			return 0, false
		}
		pick := 0
		if job.InputFile != nil {
			for idx, split := range pendingMaps {
				if split < len(job.InputFile.Blocks) && rt.D.HasLocalReplica(job.InputFile, split, node) {
					pick = idx
					res.Counters.DataLocalMaps++
					break
				}
			}
		}
		split := pendingMaps[pick]
		pendingMaps = append(pendingMaps[:pick], pendingMaps[pick+1:]...)
		return split, true
	}

	runMapTask := func(p *sim.Process, node, split int) {
		n := rt.C.Node(node)
		p.Sleep(rt.Cfg.TaskStartup)
		records, simBytes := job.Input.Split(split)
		res.Counters.InputSimBytes += simBytes

		// Read the split: local disk or remote replica via DFS.
		if job.InputFile != nil && split < len(job.InputFile.Blocks) {
			rt.D.ReadBlock(p, job.InputFile, split, node)
		} else {
			n.ReadDisk(p, simBytes)
		}

		// Charge CPU, then run the real mapper.
		n.Compute(p, float64(simBytes)*job.Cost.MapCPUPerByte)

		parts := make([][]KV, job.NumReducers)
		var realIn, realOut int64
		for _, kv := range records {
			realIn += kv.Bytes()
			job.Mapper.Map(kv, func(k, v string) {
				r := job.Partition(k, job.NumReducers)
				parts[r] = append(parts[r], KV{k, v})
			})
		}
		res.Counters.MapInputRecords += int64(len(records))
		if job.Combiner != nil {
			for r := range parts {
				parts[r] = combine(parts[r], job.Combiner)
			}
		}
		simOut := make([]int64, job.NumReducers)
		for r := range parts {
			var pb int64
			for _, kv := range parts[r] {
				pb += kv.Bytes()
			}
			realOut += pb
			simOut[r] = pb
			res.Counters.MapOutputRecords += int64(len(parts[r]))
		}

		// Scale the real output bytes up to simulated bytes.
		var scale float64
		switch {
		case job.Cost.OutputRatio > 0 && realOut > 0:
			scale = float64(simBytes) * job.Cost.OutputRatio / float64(realOut)
		case realIn > 0 && realOut > 0:
			scale = float64(simBytes) / float64(realIn)
		default:
			scale = 1
		}
		var totalSimOut int64
		for r := range simOut {
			simOut[r] = int64(float64(simOut[r]) * scale)
			totalSimOut += simOut[r]
		}
		// Spill the map output to the local disk, as Hadoop does.
		if totalSimOut > 0 {
			n.WriteDisk(p, totalSimOut)
		}
		mapOuts[split] = &mapTaskOut{node: node, partitions: parts, simBytes: simOut}
		mapWG.Done(rt.C.Eng)
	}

	// Map workers: one process per map slot per node. Workers are
	// registered slot-by-slot across nodes (not node-by-node) so that
	// same-instant task grabs spread over the cluster the way Hadoop's
	// heartbeat-driven assignment does, letting the locality preference
	// in takeMap actually bite.
	for s := 0; s < rt.Cfg.MapSlotsPerNode; s++ {
		for nodeID := range rt.C.Nodes {
			nodeID := nodeID
			rt.C.Eng.Go(func(p *sim.Process) {
				for {
					p.Sleep(rt.Cfg.Heartbeat)
					split, ok := takeMap(nodeID)
					if !ok {
						return
					}
					runMapTask(p, nodeID, split)
				}
			})
		}
	}

	// ---- Reduce phase ----
	output := make([][]KV, job.NumReducers)
	pendingReduces := make([]int, job.NumReducers)
	for i := range pendingReduces {
		pendingReduces[i] = i
	}
	var reduceWG sim.WaitGroup
	reduceWG.Add(job.NumReducers)

	takeReduce := func() (int, bool) {
		if len(pendingReduces) == 0 {
			return 0, false
		}
		r := pendingReduces[0]
		pendingReduces = pendingReduces[1:]
		return r, true
	}

	runReduceTask := func(p *sim.Process, node, r int) {
		n := rt.C.Node(node)
		p.Sleep(rt.Cfg.TaskStartup)

		// Shuffle: fetch partition r of every map task's output.
		nRecs := 0
		for _, mo := range mapOuts {
			nRecs += len(mo.partitions[r])
		}
		recs := make([]KV, 0, nRecs)
		var simIn int64
		for _, mo := range mapOuts {
			recs = append(recs, mo.partitions[r]...)
			mo.partitions[r] = nil // fetched: this reducer was its only reader
			sb := mo.simBytes[r]
			simIn += sb
			if sb > 0 {
				rt.C.Node(mo.node).ReadDisk(p, sb)
				rt.C.Send(p, mo.node, node, sb)
			}
		}
		res.Counters.ShuffleSimBytes += simIn

		// Merge-sort and group for real; charge the reduce CPU.
		slices.SortStableFunc(recs, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
		n.Compute(p, float64(simIn)*job.Cost.ReduceCPUPerByte)

		var out []KV
		var realIn, realOut int64
		for _, kv := range recs {
			realIn += kv.Bytes()
		}
		groupedReduce(recs, reducer, func(k, v string) {
			out = append(out, KV{k, v})
			realOut += int64(len(k) + len(v))
		})
		output[r] = out
		res.Counters.OutputRecords += int64(len(out))

		var simOut int64
		if realIn > 0 {
			simOut = int64(float64(simIn) * float64(realOut) / float64(realIn))
		}
		res.Counters.OutputSimBytes += simOut
		if job.OutputFile != "" && simOut > 0 {
			rt.D.Write(p, fmt.Sprintf("%s.part-%05d", job.OutputFile, r), simOut, node)
		}
		reduceWG.Done(rt.C.Eng)
	}

	// Reduce workers start once all maps finish (slowstart = 1.0).
	rt.C.Eng.Go(func(p *sim.Process) {
		mapWG.Wait(p)
		for s := 0; s < rt.Cfg.ReduceSlotsPerNode; s++ {
			for nodeID := range rt.C.Nodes {
				nodeID := nodeID
				rt.C.Eng.Go(func(rp *sim.Process) {
					for {
						rp.Sleep(rt.Cfg.Heartbeat)
						r, ok := takeReduce()
						if !ok {
							return
						}
						runReduceTask(rp, nodeID, r)
					}
				})
			}
		}
	})

	rt.C.Eng.Run()
	res.Output = output
	res.Finish = rt.C.Eng.Now()
	return res, nil
}

// combine groups records by key and applies the combiner, preserving
// deterministic key order. It sorts recs in place: the caller owns the
// slice and keeps only the result.
func combine(recs []KV, c Reducer) []KV {
	if len(recs) == 0 {
		return recs
	}
	slices.SortStableFunc(recs, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	var out []KV
	groupedReduce(recs, c, func(k, v string) { out = append(out, KV{k, v}) })
	return out
}

// groupedReduce walks key-sorted records, invoking the reducer once per key.
func groupedReduce(sorted []KV, r Reducer, emit Emit) {
	var values []string // one buffer for all keys: Reduce may not retain it
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			j++
		}
		values = values[:0]
		for k := i; k < j; k++ {
			values = append(values, sorted[k].Value)
		}
		r.Reduce(sorted[i].Key, values, emit)
		i = j
	}
}
