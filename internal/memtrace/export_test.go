package memtrace

// BatchSize is the generator's batch length, for the external tests that
// place trace lengths on batch boundaries.
const BatchSize = batchSize
