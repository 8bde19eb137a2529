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
		job.Partition = hashPartition
	}
	reducer := job.Reducer
	if reducer == nil {
		reducer = identityReducer
	}

	res := &Result{Job: job, Start: rt.C.Eng.Now()}
	nSplits := job.Input.NumSplits()
	res.Counters.MapTasks = nSplits
	res.Counters.ReduceTasks = job.NumReducers

	// One Run's shared buffers. sim processes interleave at every blocking
	// call (Sleep, disk, network, Compute, DFS), so a task may use sc only
	// in a stretch that makes none: there no other task runs.
	var sc scratch
	emit := Emit(func(k, v string) {
		sc.kvs = append(sc.kvs, KV{k, v})
		sc.parts = append(sc.parts, int32(job.Partition(k, job.NumReducers)))
	})
	var combine func(key string, values []string)
	if job.Combiner != nil {
		// A combined record goes to its group key's partition, which is
		// where every record of the group was headed.
		var part int32
		emitCombined := Emit(func(k, v string) {
			sc.kvs = append(sc.kvs, KV{k, v})
			sc.parts = append(sc.parts, part)
		})
		combine = func(key string, values []string) {
			part = int32(job.Partition(key, job.NumReducers))
			job.Combiner.Reduce(key, values, emitCombined)
		}
		emit = sc.g.add
	}
	emitOut := Emit(func(k, v string) { sc.kvs = append(sc.kvs, KV{k, v}) })
	reduce := func(key string, values []string) { reducer.Reduce(key, values, emitOut) }

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

		sc.kvs, sc.parts = sc.kvs[:0], sc.parts[:0]
		var realIn, realOut int64
		for _, kv := range records {
			realIn += kv.size()
			job.Mapper.Map(kv, emit)
		}
		res.Counters.MapInputRecords += int64(len(records))
		if combine != nil {
			sc.g.each(combine)
		}
		parts, simOut := sc.spill(job.NumReducers)
		for _, pb := range simOut {
			realOut += pb
		}
		res.Counters.MapOutputRecords += int64(len(sc.kvs))

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
		var simIn int64
		for _, mo := range mapOuts {
			sb := mo.simBytes[r]
			simIn += sb
			if sb > 0 {
				rt.C.Node(mo.node).ReadDisk(p, sb)
				rt.C.Send(p, mo.node, node, sb)
			}
		}
		res.Counters.ShuffleSimBytes += simIn

		// Charge the reduce CPU, then merge, group and reduce for real.
		n.Compute(p, float64(simIn)*job.Cost.ReduceCPUPerByte)

		var realIn, realOut int64
		for _, mo := range mapOuts {
			for _, kv := range mo.partitions[r] {
				realIn += kv.size()
				sc.g.add(kv.Key, kv.Value)
			}
			mo.partitions[r] = nil // fetched: this reducer was its only reader
		}
		sc.kvs = sc.kvs[:0]
		sc.g.each(reduce)
		for _, kv := range sc.kvs {
			realOut += kv.size()
		}
		var out []KV
		if len(sc.kvs) > 0 {
			out = slices.Clone(sc.kvs)
		}
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

// scratch is one Run's reusable buffers: a map task's emitted records with
// their partitions (or a reduce task's output), and the grouping kernel.
type scratch struct {
	kvs   []KV
	parts []int32
	g     grouper
}

// spill moves kvs into r partitions, each in emission order, allocating
// the task's records once at their exact size. It also returns each
// partition's real bytes.
func (sc *scratch) spill(r int) ([][]KV, []int64) {
	parts := make([][]KV, r)
	bytes := make([]int64, r)
	if len(sc.kvs) == 0 {
		return parts, bytes
	}
	count := make([]int, r)
	for i, p := range sc.parts {
		count[p]++
		bytes[p] += sc.kvs[i].size()
	}
	all := make([]KV, len(sc.kvs))
	off := 0
	for p, n := range count {
		if n > 0 {
			parts[p] = all[off : off : off+n]
		}
		off += n
	}
	for i, p := range sc.parts {
		parts[p] = append(parts[p], sc.kvs[i])
	}
	return parts, bytes
}

// grouper is the engine's grouping kernel. It yields exactly the order of
// a stable sort by key without moving a record through a sort: add gives
// each record its key's group id, each sorts only the distinct keys, and
// prefix sums over the group sizes place every value in its group, in the
// order added. The zero value is ready; its buffers are kept for reuse.
type grouper struct {
	ids    map[string]int32 // key -> group id, in first-seen order
	keys   []groupKey       // group id -> key, until each sorts them
	size   []int32          // group id -> records
	pos    []int32          // group id -> next free slot in values
	gid    []int32          // record -> group id
	vals   []string         // record -> value
	values []string         // the values, group by group in key order
}

type groupKey struct {
	key string
	id  int32
}

// add records one key-value pair.
func (g *grouper) add(key, value string) {
	id, ok := g.ids[key]
	if !ok {
		if g.ids == nil {
			g.ids = make(map[string]int32)
		}
		id = int32(len(g.keys))
		g.ids[key] = id
		g.keys = append(g.keys, groupKey{key, id})
		g.size = append(g.size, 0)
	}
	g.size[id]++
	g.gid = append(g.gid, id)
	g.vals = append(g.vals, value)
}

// each calls fn once per key, in key order, with the key's values in the
// order they were added, then empties the grouper. values is the kernel's
// buffer: valid only until fn returns, and capped so an append to it
// cannot reach the next group's values.
func (g *grouper) each(fn func(key string, values []string)) {
	slices.SortFunc(g.keys, func(a, b groupKey) int { return strings.Compare(a.key, b.key) })
	g.pos = slices.Grow(g.pos[:0], len(g.size))[:len(g.size)]
	off := int32(0)
	for _, k := range g.keys {
		g.pos[k.id] = off
		off += g.size[k.id]
	}
	g.values = slices.Grow(g.values[:0], len(g.vals))[:len(g.vals)]
	for i, id := range g.gid {
		g.values[g.pos[id]] = g.vals[i]
		g.pos[id]++
	}
	off = 0
	for _, k := range g.keys {
		end := off + g.size[k.id]
		fn(k.key, g.values[off:end:end])
		off = end
	}
	// Drop the strings too: a reduce task's fetched partitions are
	// garbage once grouped, though the scratch lives for the whole Run.
	clear(g.ids)
	clear(g.keys)
	clear(g.vals)
	clear(g.values)
	g.keys, g.size, g.gid, g.vals = g.keys[:0], g.size[:0], g.gid[:0], g.vals[:0]
}
