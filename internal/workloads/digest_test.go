package workloads_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dcbench/internal/report"
	"dcbench/internal/workloads"
)

// statsDigest is the SHA-256 over json.Marshal of the 33 cluster Stats —
// All() x {1, 4, 8} slaves, workload-major — at report.DefaultOptions()
// scale and seed: every makespan, byte counter and Quality value behind
// Figure 2, Figure 5 and Table I.
const statsDigest = "0a2fd257ec5073714a502eb64878065f6ae2d81c2435bdce2ca0b1551a4a8cfa"

// TestStatsDigestPinned is the cluster stack's pin: a changed makespan,
// simulated byte count or quality metric of any cell fails here, in-tree,
// rather than only in a figure golden or a traced benchmark run.
func TestStatsDigestPinned(t *testing.T) {
	o := report.DefaultOptions()
	all, err := workloads.SlaveSweepMemo(context.Background(), nil, workloads.All(), []int{1, 4, 8}, o.Scale, o.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	cells := 0
	for _, row := range all {
		for _, st := range row {
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
			cells++
		}
	}
	if cells != 33 {
		t.Fatalf("matrix has %d cells, want 33", cells)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != statsDigest {
		t.Fatalf("stats digest = %s, want %s\ncluster results changed: this PR is byte-identical by contract — fix the regression",
			got, statsDigest)
	}
}
