package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/sweep"
)

// countersDigest is the SHA-256 of the 26 registry counter files at
// report.DefaultOptions(), each record's JSON length-prefixed (8 bytes, big
// endian) — the construction of the benchmark's core.counters_digest48,
// whose value is this digest's first six bytes (0xba16bf4a7e5e = 204606861377118).
const countersDigest = "ba16bf4a7e5e44476aa9c5681e6bbaef4a96cdbc4bd72b3cfdf04256721553e4"

// TestCountersDigestPinned is the model's pin: any change to any counter of
// any registry workload at the shipped options fails here, in-tree, rather
// than only in a traced benchmark run or a figure golden.
func TestCountersDigestPinned(t *testing.T) {
	o := report.DefaultOptions()
	results, err := core.CharacterizeSweep(context.Background(), sweep.NewEngine(),
		o.CoreConfig(), o.Warmup+o.Instrs, sweep.RunOptions{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 26 {
		t.Fatalf("registry has %d workloads, want 26", len(results))
	}
	h := sha256.New()
	for _, r := range results {
		data, err := json.Marshal(r.ToRecord())
		if err != nil {
			t.Fatal(err)
		}
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != countersDigest {
		t.Fatalf("counters digest = %s, want %s\nresults changed: bump `uarch.ModelVersion` and re-cut goldens, or fix the regression",
			got, countersDigest)
	}
}
