// Package mapreduce implements a Hadoop 1.x-style MapReduce engine on top of
// the simulated cluster and DFS. Map and reduce functions execute for real
// over real records — outputs are genuine, testable data — while the engine
// charges simulated time for task startup, scheduling, disk, network and CPU
// so that cluster-level results (job makespan, speedup, disk write rates)
// reproduce the paper's Figures 2 and 5.
//
// Data scale is decoupled from time scale: input formats supply real records
// for a split together with the simulated byte size of that split (e.g. a
// 64 MB HDFS block realised by 64 KB of generated records). All I/O and CPU
// charges use simulated bytes, so makespans correspond to the paper's
// 147-187 GB inputs while the in-memory computation stays laptop-sized.
package mapreduce

// KV is one key-value record.
type KV struct {
	Key   string
	Value string
}

// size returns the record's real payload size.
func (kv KV) size() int64 { return int64(len(kv.Key) + len(kv.Value)) }

// Emit passes one output record out of a map or reduce function.
type Emit func(key, value string)

// Mapper transforms one input record into zero or more output records.
type Mapper func(kv KV, emit Emit)

// Reducer folds all values of one key into zero or more output records.
// values is the engine's buffer, valid only until the call returns.
type Reducer func(key string, values []string, emit Emit)

// identityReducer re-emits every value under its key.
var identityReducer = Reducer(func(key string, values []string, emit Emit) {
	for _, v := range values {
		emit(key, v)
	}
})

// Partitioner routes a key to one of r reduce partitions. It must be a
// pure function of (key, r): a map task with a combiner partitions each
// key once, for all of that key's records.
type Partitioner func(key string, r int) int

// hashPartition is the default partitioner: 32-bit FNV-1a over the key's
// bytes, modulo r.
func hashPartition(key string, r int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(r))
}

// InputFormat supplies the splits of a job's input. Records must be
// deterministic per split: the engine may materialise them while simulating
// the corresponding block read.
type InputFormat interface {
	// NumSplits returns the number of input splits (== map tasks).
	NumSplits() int
	// Split returns the real records of split i and the simulated byte
	// size that split stands for.
	Split(i int) (records []KV, simBytes int64)
}

// SliceInput is an in-memory InputFormat over pre-partitioned records,
// useful for iterative jobs whose input is a previous job's output.
type SliceInput struct {
	Splits   [][]KV
	SimBytes []int64 // simulated size per split; if nil, real sizes are used
}

// NumSplits implements InputFormat.
func (s *SliceInput) NumSplits() int { return len(s.Splits) }

// Split implements InputFormat.
func (s *SliceInput) Split(i int) ([]KV, int64) {
	recs := s.Splits[i]
	if s.SimBytes != nil {
		return recs, s.SimBytes[i]
	}
	var b int64
	for _, kv := range recs {
		b += kv.size()
	}
	return recs, b
}

// CostModel translates simulated bytes into CPU seconds. Rates are
// per-workload calibration constants: e.g. a Grep map scans ~100 MB/s/core
// (1e-8 s/B) while a K-means map does distance math at ~5 MB/s/core.
type CostModel struct {
	MapCPUPerByte    float64 // CPU seconds per simulated input byte in map
	ReduceCPUPerByte float64 // CPU seconds per simulated shuffle byte in reduce
	OutputRatio      float64 // optional override: simulated map-output bytes per input byte; 0 means "use real ratio"
}
